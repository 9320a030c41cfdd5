"""Source hygiene: every package import, ``config`` constant and public field
is read, only ``orbits`` writes a spec's ``__dict__``, only ``cli`` knows the
report format and writes a file, and the README's code runs."""

import ast
import dataclasses
import functools
import pathlib
import re
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for p in (ROOT / "src" / "orbitframes").glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``noqa`` lines are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa" in lines[alias.lineno - 1] or "noqa" in lines[node.lineno - 1]:
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_detector():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)"]


def unread_constants(config: str, modules: list[str]) -> list[str]:
    """Module-level constants of ``config`` that neither a function of it nor
    any of ``modules`` reads, as a name or as ``config.<name>``."""
    body = ast.parse(config).body
    names = [
        target.id
        for node in body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    trees = [node for node in body if isinstance(node, ast.FunctionDef)]
    trees += [ast.parse(source) for source in modules]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "config":
            read.add(node.attr)
    return [name for name in names if name not in read]


def test_every_config_constant_is_read():
    # A threshold no computation reads is a parameter to delete.
    config = ROOT / "src" / "orbitframes" / "config.py"
    modules = [p.read_text(encoding="utf-8") for p in MODULES if p != config]
    assert unread_constants(config.read_text(encoding="utf-8"), modules) == []


def test_unread_constant_detector():
    config = "A = 1\nB: int = 2\nC = 3\nD = E = 4\n\ndef f():\n    return C\n"
    modules = ["from .config import A, D\nprint(A)\nD = 5\n", "from . import config\nconfig.E\nconfig.B = 0\n"]
    assert unread_constants(config, modules) == ["B", "D"]


def package_names_read(source: str, modules: set[str]) -> set[str]:
    """Names a source reads from the package: a name it imports from it and
    reads, an attribute of a package module (``orbits.frame_bounds``), or a
    string constant (a patch target such as ``("orbits", "frame_bounds")``)."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "orbitframes")
        for alias in node.names
    }
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in imported:
            read.add(imported[node.id])
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if (owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)) in modules:
                read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_every_public_function_is_read():
    # A public function that only its own module, the package's exports and
    # the acceptance battery name is one no computation reads.
    import orbitframes

    modules = {p.stem for p in MODULES} | {"orbitframes"}
    sources = {
        path: package_names_read(path.read_text(encoding="utf-8"), modules)
        for folder in ("src/orbitframes", "perfbench", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name not in ("__init__.py", "acceptance.py") or path.parent.name != "orbitframes"
    }
    unread = []
    for name in orbitframes.__all__:
        value = getattr(orbitframes, name)
        if isinstance(value, type) or not callable(value):
            continue
        own = ROOT / "src" / "orbitframes" / (value.__module__.rsplit(".", 1)[-1] + ".py")
        if not any(name in read for path, read in sources.items() if path != own):
            unread.append(name)
    assert unread == []


def test_package_name_detector():
    source = (
        "from orbitframes import orbits, frame_bounds, unused\n"
        "from .model_space import decay_profile as profile\n"
        "import numpy as np\n"
        "frame_bounds(orbits.synthesis_matrix(spec))\n"
        "profile(ms, f, 8)\n"
        "pair.orbit, np.linalg, other.generator_closure\n"
        "TARGETS = [('blaschke', 'taylor_coeffs')]\n"
    )
    read = package_names_read(source, {"orbits", "blaschke", "orbitframes"})
    assert {"frame_bounds", "synthesis_matrix", "decay_profile", "taylor_coeffs"} <= read
    assert not {"unused", "orbit", "linalg", "generator_closure", "profile"} & read


def _callee(func: ast.expr) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def attributes_read(source: str, fields: dict[str, list[str]], returns: dict[str, str]) -> set[str]:
    """Attribute names a source loads (``x.name``), plus every field of the
    dataclass that ``asdict(x)`` takes: x a call, or a name assigned a call, of
    a function whose return annotation ``returns`` gives, ``fields`` the class's."""
    tree = ast.parse(source)
    made = {
        target.id: node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and _callee(node.func) == "asdict" and node.args:
            arg = node.args[0]
            arg = made.get(arg.id, arg) if isinstance(arg, ast.Name) else arg
            if isinstance(arg, ast.Call):
                read.update(fields.get(returns.get(_callee(arg.func)), ()))
    return read


def test_every_public_field_is_read():
    # A field or property that no program reads is a value no computation
    # needs; the tests alone do not count.
    import orbitframes

    exported = {name: getattr(orbitframes, name) for name in orbitframes.__all__}
    classes = {name: value for name, value in exported.items() if isinstance(value, type)}
    fields = {
        name: [f.name for f in dataclasses.fields(cls)]
        for name, cls in classes.items()
        if dataclasses.is_dataclass(cls)
    }
    members = {
        name: fields.get(name, [])
        + [
            attr
            for attr, value in vars(cls).items()
            if isinstance(value, (property, functools.cached_property)) and not attr.startswith("_")
        ]
        for name, cls in classes.items()
    }
    returns = {
        name: value.__annotations__.get("return")
        for name, value in exported.items()
        if name not in classes and callable(value)
    }
    read = set()
    for folder in ("src/orbitframes", "perfbench", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name != "__init__.py":
                read |= attributes_read(path.read_text(encoding="utf-8"), fields, returns)
    unread = [f"{name}.{attr}" for name, attrs in members.items() for attr in attrs if attr not in read]
    assert unread == []


def test_attribute_read_detector():
    source = (
        "import dataclasses\n"
        "spec.dim, ms.phi[0]\n"
        "pair.stored = 1\n"
        "rep = bounds(spec)\n"
        "dataclasses.asdict(rep)\n"
        "asdict(profile(x))\n"
        "asdict(other)\n"
        "(lambda m: m.method)(0).called()\n"
    )
    fields = {"Report": ["lower", "upper"], "Profile": ["phi"], "Other": ["unseen"]}
    returns = {"bounds": "Report", "profile": "Profile", "helper": "Other"}
    read = attributes_read(source, fields, returns)
    assert {"dim", "phi", "asdict", "lower", "upper", "method", "called"} <= read
    assert not {"stored", "unseen", "spec", "rep"} & read


def dict_writes(source: str) -> list[int]:
    """Lines that assign into a ``__dict__``: a subscript store or delete, or a
    ``.__dict__.update`` call."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value if node.func.attr == "update" else None
        else:
            continue
        if isinstance(target, ast.Attribute) and target.attr == "__dict__":
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "orbits.py"],
    ids=[p.name for p in MODULES if p.name != "orbits.py"],
)
def test_only_orbits_writes_a_dict(path):
    # OrbitSpec._replace is the one door into a spec's fields and cached operators.
    assert dict_writes(path.read_text(encoding="utf-8")) == []


def test_dict_write_detector():
    source = (
        "a.__dict__['x'] = 1\n"
        "b.__dict__.update(y=2)\n"
        "c = d.__dict__.get('z')\n"
        "del e.__dict__['w']\n"
        "f.update(v=3)\n"
        "g.__dict__['u'] += 1\n"
    )
    assert dict_writes(source) == [1, 2, 4, 6]


def json_methods(source: str) -> list[str]:
    """Functions named ``to_dict`` or ``to_json``, with their lines, in order."""
    found = [
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("to_dict", "to_json")
    ]
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_type_knows_the_report_format(path):
    # The report's keys are built in cli; the library's types carry numbers.
    assert json_methods(path.read_text(encoding="utf-8")) == []


def test_json_method_detector():
    source = (
        "class A:\n    def to_dict(self):\n        pass\n"
        "def to_json(x):\n    pass\n"
        "def to_list(x):\n    pass\n"
        "d = a.to_dict()\n"
    )
    assert json_methods(source) == ["to_dict (line 2)", "to_json (line 4)"]


def file_writes(source: str) -> list[int]:
    """Lines that call ``open`` (a name or an attribute) with a literal mode
    that writes: a string argument or ``mode=`` made of mode letters only,
    holding ``w``, ``a``, ``x`` or ``+``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if _callee(node.func) != "open":
            continue
        for arg in node.args + [kw.value for kw in node.keywords if kw.arg == "mode"]:
            text = arg.value if isinstance(arg, ast.Constant) else None
            if isinstance(text, str) and set(text) <= set("rwaxbt+") and set(text) & set("wax+"):
                lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "cli.py"],
    ids=[p.name for p in MODULES if p.name != "cli.py"],
)
def test_only_cli_writes_a_file(path):
    # A run writes one file, its report, and cli writes it.
    assert file_writes(path.read_text(encoding="utf-8")) == []


def test_cli_writes_one_file():
    cli = ROOT / "src" / "orbitframes" / "cli.py"
    assert len(file_writes(cli.read_text(encoding="utf-8"))) == 1


def test_file_write_detector():
    source = (
        "open(p, 'w')\n"
        "open(p)\n"
        "open(p, 'r', encoding='utf-8')\n"
        "open(p, mode='a')\n"
        "path.open('x')\n"
        "io.open('data.txt', 'rb')\n"
        "open('a.bin')\n"
        "path.open(mode='r+')\n"
        "write(p, 'w')\n"
    )
    assert file_writes(source) == [1, 4, 5, 8]


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    for block in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(block, "README.md", "exec"), {})
