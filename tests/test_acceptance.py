"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact (integer/Laurent equality); the dimension formula
is compared as series at the stated truncation q^10, and the Euler
characteristics are exact identities, so they hold at q^12 too.  Runtime
budgets from the criteria are asserted where stated.
"""

from klrchar import verify


def report(rec, budget=None):
    status = "PASS" if rec["passed"] else "FAIL"
    print(f"[{status}] {rec['name']}: {rec['detail']} ({rec['seconds']}s)")
    assert rec["passed"], rec["detail"]
    if budget is not None:
        assert rec["seconds"] <= budget, f"over budget: {rec['seconds']}s > {budget}s"


def test_criterion_1_g2_dual_canonical_table():
    report(verify.check_g2_table(), budget=1.0)


def test_criterion_2_good_lyndon_words():
    report(verify.check_lyndon_words(), budget=5.0)


def test_criterion_3_scale_factor_divisibility():
    report(verify.check_ball2(), budget=60.0)


def test_criterion_4_length_two_identity():
    report(verify.check_length_two())


def test_criterion_5_dimension_formula():
    report(verify.check_dim_formula(trunc=10), budget=120.0)


def test_criterion_6_characteristic_two_gram():
    report(verify.check_willcex(), budget=1800.0)


def test_criterion_7_a3_resolution():
    report(verify.check_a3_resolution(), budget=10.0)


def test_criterion_8_resolution_sweep():
    report(verify.check_resolution_sweep(), budget=300.0)


def test_criterion_9_property_suites():
    report(verify.check_properties(), budget=300.0)
