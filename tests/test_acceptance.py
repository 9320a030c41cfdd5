"""Acceptance gate: the full self-check battery, one line per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to see each criterion as
its own pass/fail line; the printed details mirror what the CLI's
``verify`` emits.
"""

import pytest

from orbitframes.acceptance import format_line, run_battery

CRITERION_NAMES = {
    1: "single_factor_parseval",
    2: "nilpotent_exactness",
    3: "projection_equivalence",
    4: "eigenvalue_zero_identity",
    5: "certificate_containment",
    6: "perturbation_nonnormality",
    7: "generator_reconstruction",
    8: "decay_dichotomy",
    9: "biinfinite_parseval",
    10: "translate_diagnostic",
    11: "transport_sandwich",
}


@pytest.fixture(scope="session")
def battery():
    results = run_battery(seed=0)
    return {result.index: result for result in results}


def test_battery_covers_every_criterion(battery):
    assert sorted(battery) == sorted(CRITERION_NAMES)
    for index, result in battery.items():
        assert result.name == CRITERION_NAMES[index]


@pytest.mark.parametrize(
    "index",
    sorted(CRITERION_NAMES),
    ids=[f"{i:02d}-{name}" for i, name in sorted(CRITERION_NAMES.items())],
)
def test_criterion(battery, index):
    result = battery[index]
    print(format_line(result))
    assert result.passed, format_line(result)
