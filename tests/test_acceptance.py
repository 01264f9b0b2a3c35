"""Desk-scale verification batteries, one test per criterion.

Each battery recomputes its claim by an independent route and must agree
exactly (tolerance zero), performs exactly its expected number of checks,
and must finish within a minute on commodity hardware; one pass/fail line
is printed per criterion.
"""

from infgon import acceptance


def _check(result, checked):
    # run with -s (or use the verify-suite command) to watch these lines
    print()
    print(result.line())
    assert result.passed, result.failures[:5]
    assert result.checked == checked
    assert result.elapsed < 60.0, result.name


def test_criterion_1_ext_oracle_equivalence():
    _check(acceptance.criterion_1_oracle_equivalence("desk"), 31171)


def test_criterion_2_weak_2cy_symmetry():
    _check(acceptance.criterion_2_symmetry("desk"), 31171)


def test_criterion_3_hom_asymmetry():
    _check(acceptance.criterion_3_hom_asymmetry("desk"), 14)


def test_criterion_4_substructure_containment():
    _check(acceptance.criterion_4_containment("desk"), 31171)


def test_criterion_5_window_weak_ct_bijection():
    _check(acceptance.criterion_5_window_weak_ct("desk"), 1738)


def test_criterion_6_mutability_trichotomy():
    _check(acceptance.criterion_6_mutability_trichotomy("desk"), 2268)


def test_criterion_7_fountain_behaviour():
    _check(acceptance.criterion_7_fountain_behaviour("desk"), 8)


def test_criterion_8_fan_functorial_finiteness():
    _check(acceptance.criterion_8_fan_finiteness("desk"), 432)


def test_criterion_9_limit_arcs():
    _check(acceptance.criterion_9_limit_arcs("desk"), 35)


def test_criterion_10_flip_involution():
    _check(acceptance.criterion_10_flip_involution("desk"), 1406)


def test_criterion_11_lift_independence():
    _check(acceptance.criterion_11_lift_independence("desk"), 20000)


def test_pair_criteria_check_every_type_of_the_smoke_level():
    # completed:1..3 carry 205 + 808 + 2121 order types of arc pairs
    for criterion in (
        acceptance.criterion_1_oracle_equivalence,
        acceptance.criterion_2_symmetry,
        acceptance.criterion_4_containment,
    ):
        _check(criterion("smoke"), 3134)
