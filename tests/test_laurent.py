from klrchar.laurent import (ExactDivisionError, LaurentPoly, PowerSeries,
                             factor_quantum, quantum_factors)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def L(**kw):
    return LaurentPoly({int(k[1:].replace("m", "-")): v for k, v in kw.items()})


def test_qint_balanced():
    assert LaurentPoly.qint(2) == LaurentPoly({1: 1, -1: 1})
    assert LaurentPoly.qint(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert LaurentPoly.qint(2, 3) == LaurentPoly({3: 1, -3: 1})
    assert LaurentPoly.qint(1) == LaurentPoly.one()
    assert LaurentPoly.qint(0) == LaurentPoly.zero()


def test_qfact():
    two = LaurentPoly.qint(2)
    three = LaurentPoly.qint(3)
    assert LaurentPoly.qfact(3) == two * three


def test_arithmetic_and_bar():
    p = LaurentPoly({1: 2, -3: 1})
    q = LaurentPoly({1: -2, 0: 5})
    assert (p + q) == LaurentPoly({0: 5, -3: 1})
    assert (p - p) == LaurentPoly.zero()
    assert p.bar() == LaurentPoly({-1: 2, 3: 1})
    assert p.bar().bar() == p
    assert LaurentPoly.qint(5, 2).is_bar_invariant()
    assert not p.is_bar_invariant()


def test_exact_division():
    a = LaurentPoly.qint(2) * LaurentPoly.qint(3)
    assert a.exact_div(LaurentPoly.qint(3)) == LaurentPoly.qint(2)
    with pytest.raises(ExactDivisionError):
        (LaurentPoly.one() + LaurentPoly.term(1, 1)).exact_div(LaurentPoly.qint(2))
    # 1 - q^2 divides the A2 commutator coefficient exactly
    num = LaurentPoly({0: 1, 2: -1})
    assert num.exact_div(num) == LaurentPoly.one()


def test_pos_part():
    p = LaurentPoly({3: 1, 0: 7, -2: 4})
    assert p.pos_part() == LaurentPoly({3: 1})


def test_series_division_roundtrip():
    one = PowerSeries.from_poly(LaurentPoly.one(), 15)
    d = (LaurentPoly.one() - LaurentPoly.term(1, 2))
    geo = one.div_poly(d)
    assert geo.c == {2 * k: 1 for k in range(8)}
    assert geo * d == one
    # unit negative lowest term
    md = LaurentPoly({-1: 1, 3: -1})
    s = PowerSeries.from_poly(LaurentPoly.term(1, -1), 10)
    assert s.div_poly(md) * md == s


def test_series_truncate_and_eq():
    a = PowerSeries({0: 1, 5: 2}, 10)
    assert a.truncate(4) == PowerSeries({0: 1}, 4)
    assert a != PowerSeries({0: 1, 5: 2}, 11)


# sparse coefficient dicts with negative exponents and zero coefficients
COEFFS = st.dictionaries(st.integers(-6, 10), st.integers(-3, 3), max_size=6)
TRUNCS = st.integers(-3, 8)


def term_sum(a, b, t):
    """Truncated sum, term by term: ({exp: coeff}, trunc)."""
    out = {}
    for c in (a, b):
        for e, x in c.items():
            if e <= t:
                out[e] = out.get(e, 0) + x
    return {e: x for e, x in out.items() if x}, t


def term_product(a, ta, b, tb):
    t = min(ta, tb)
    out = {}
    for e1, x1 in a.items():
        for e2, x2 in b.items():
            if e1 <= ta and e2 <= tb and e1 + e2 <= t:
                out[e1 + e2] = out.get(e1 + e2, 0) + x1 * x2
    return {e: x for e, x in out.items() if x}, t


@settings(max_examples=300, deadline=None)
@given(COEFFS, TRUNCS, COEFFS, TRUNCS, st.integers(-3, 3))
def test_series_arithmetic_term_by_term(a, ta, b, tb, k):
    x, y = PowerSeries(a, ta), PowerSeries(b, tb)
    t = min(ta, tb)
    neg_b = {e: -v for e, v in b.items()}

    def got(s):
        return s.c, s.trunc

    assert got(x + y) == term_sum(a, b, t)
    assert got(x - y) == term_sum(a, neg_b, t)
    assert got(-y) == term_sum({}, neg_b, tb)
    assert got(x * y) == term_product(a, ta, b, tb)
    # a LaurentPoly factor is truncated at the series' own bound first
    p = LaurentPoly({e: v for e, v in b.items() if v})
    assert got(x * p) == term_product(a, ta, b, ta)
    scaled = {e: v * k for e, v in a.items() if e <= ta and v * k}
    assert got(x * k) == got(k * x) == (scaled, ta)


def test_quantum_factors():
    p = LaurentPoly.qint(2) * LaurentPoly.qint(3)
    assert quantum_factors(p) == [(2, 1), (3, 1)]
    g2 = LaurentPoly.qint(2, 3) * LaurentPoly.qint(2) * LaurentPoly.qint(3)
    assert quantum_factors(g2) == [(2, 1), (3, 1), (2, 3)]
    assert quantum_factors(LaurentPoly({1: 1})) is None
    assert factor_quantum(LaurentPoly.one()) == "1"
    assert factor_quantum(g2, {1: 1, 3: 2}) == "[2]_1[3]_1[2]_2"
