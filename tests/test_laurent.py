import random

from klrchar.laurent import (QUANTUM_FACTOR_MAX_N, ExactDivisionError, LaurentPoly,
                             factor_quantum, quantum_factors, series)

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


def test_exact_division_seeded():
    import random

    rng = random.Random(23)

    def poly(span, terms):
        return LaurentPoly({rng.randint(-span, span): rng.choice((-3, -2, -1, 1, 2, 3))
                            for _ in range(terms)})

    for _ in range(500):
        a, b = poly(6, rng.randint(1, 5)), poly(4, rng.randint(1, 4))
        num = a * b
        assert num.exact_div(b) == a
        # q^e added anywhere leaves a remainder unless b is a unit +-q^k
        if len(b.c) > 1 or abs(b.c[b.min_exp()]) > 1:
            e = rng.randint(num.min_exp() - 1, num.max_exp() + 1)
            with pytest.raises(ExactDivisionError):
                (num + LaurentPoly.term(1, e)).exact_div(b)


def test_pos_part():
    p = LaurentPoly({3: 1, 0: 7, -2: 4})
    assert p.pos_part() == LaurentPoly({3: 1})


def test_series_division_roundtrip():
    d = LaurentPoly({0: 1, 2: -1})
    geo = series(LaurentPoly.one(), d, 15)
    assert geo == {2 * k: 1 for k in range(8)}
    assert (LaurentPoly(geo) * d).c == {0: 1, 16: -1}
    # unit negative lowest term: q^-1 / (q^-1 - q^3) = 1 / (1 - q^4)
    md = LaurentPoly({-1: 1, 3: -1})
    assert series(LaurentPoly.term(1, -1), md, 10) == {0: 1, 4: 1, 8: 1}
    # and positive: q^5 / (q^2 + q^3) = q^3 - q^4 + q^5 - ...
    assert series(LaurentPoly.term(1, 5), LaurentPoly({2: 1, 3: 1}), 6) == {
        3: 1, 4: -1, 5: 1, 6: -1}
    with pytest.raises(ExactDivisionError):
        series(LaurentPoly.one(), LaurentPoly({0: 2, 1: 1}), 4)


def test_series_truncate_and_eq():
    # a lower truncation is the higher one cut back
    num = LaurentPoly({-3: 2, 0: 1, 5: 2})
    den = LaurentPoly({0: 1, 2: -1, 3: 1})
    high = series(num, den, 12)
    for t in range(-4, 12):
        assert series(num, den, t) == {e: a for e, a in high.items() if e <= t}
    assert series(LaurentPoly.zero(), den, 5) == {}


def long_division(num, den, trunc):
    """Oracle: the quotient coefficients one degree at a time, from
    num = den * quotient read off at each exponent."""
    e0 = min(den)
    out = {}
    for n in range(min(num, default=trunc + e0 + 1) - e0, trunc + 1):
        rest = num.get(n + e0, 0) - sum(a * out.get(n + e0 - e, 0)
                                        for e, a in den.items() if e != e0)
        out[n] = rest * den[e0]
    return {e: a for e, a in out.items() if a}


# sparse coefficient dicts with negative exponents and zero coefficients
COEFFS = st.dictionaries(st.integers(-6, 10), st.integers(-3, 3), max_size=6)


@st.composite
def unit_lowest(draw):
    """A denominator whose lowest term is +-q^e."""
    e0 = draw(st.integers(-3, 3))
    tail = draw(st.dictionaries(st.integers(e0 + 1, e0 + 6), st.integers(-3, 3),
                                max_size=4))
    return {**tail, e0: draw(st.sampled_from((1, -1)))}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(COEFFS, unit_lowest(), st.integers(-8, 14))
def test_series_matches_long_division(num, den, trunc):
    num = {e: a for e, a in num.items() if a}
    den = {e: a for e, a in den.items() if a}
    got = series(LaurentPoly(num), LaurentPoly(den), trunc)
    assert got == long_division(num, den, trunc)
    # multiplied back, the expansion agrees with num below q^(trunc + e0)
    back = LaurentPoly(got) * LaurentPoly(den)
    top = trunc + min(den)
    assert {e: a for e, a in back.c.items() if e <= top} == {
        e: a for e, a in num.items() if e <= top}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(COEFFS, unit_lowest())
def test_series_of_an_exact_quotient_is_its_exact_div(a, b):
    # exact_div and series are one long division: an exact quotient expands
    # to itself cut at each truncation, and whole from its top exponent on
    a = LaurentPoly({e: c for e, c in a.items() if c})
    b = LaurentPoly({e: c for e, c in b.items() if c})
    num = a * b
    assert num.exact_div(b) == a
    top = a.max_exp() if a else 0
    for t in range(-8, top + 1):
        assert series(num, b, t) == {e: c for e, c in a.c.items() if e <= t}
    assert series(num, b, top) == series(num, b, top + 3) == a.c


def test_quantum_factors():
    p = LaurentPoly.qint(2) * LaurentPoly.qint(3)
    assert quantum_factors(p) == [(2, 1), (3, 1)]
    g2 = LaurentPoly.qint(2, 3) * LaurentPoly.qint(2) * LaurentPoly.qint(3)
    assert quantum_factors(g2) == [(2, 1), (3, 1), (2, 3)]
    assert quantum_factors(LaurentPoly({1: 1})) is None
    assert factor_quantum(LaurentPoly.one()) == "1"
    assert factor_quantum(g2, {1: 1, 3: 2}) == "[2]_1[3]_1[2]_2"


def exhaustive_quantum_factors(p):
    """Oracle: depth-first search over every order of the candidate factors."""
    if p == LaurentPoly.one():
        return []
    if not p or min(p.c.values()) < 0 or not p.is_bar_invariant():
        return None
    top = p.max_exp()
    for d in range(top, 0, -1):
        for n in range(min(QUANTUM_FACTOR_MAX_N, top // d + 1), 1, -1):
            try:
                q = p.exact_div(LaurentPoly.qint(n, d))
            except ExactDivisionError:
                continue
            rest = exhaustive_quantum_factors(q)
            if rest is not None:
                return sorted(rest + [(n, d)], key=lambda t: (t[1], t[0]))
    return None


def test_quantum_factors_match_the_exhaustive_search():
    # products of up to four [n]_d, and a few polynomials that are not such
    # products, give the factorization the unpruned search gives first
    rng = random.Random(19)
    cases = [LaurentPoly.zero(), LaurentPoly.term(2), LaurentPoly.term(1, 2),
             LaurentPoly.qint(2) + LaurentPoly.one(), LaurentPoly.qint(3, 2) * 2,
             LaurentPoly.qfact(12)]
    for _ in range(150):
        p = LaurentPoly.one()
        for _ in range(rng.randint(0, 4)):
            p = p * LaurentPoly.qint(rng.randint(1, 12), rng.randint(1, 3))
        cases.append(p)
    for p in cases:
        assert quantum_factors(p) == exhaustive_quantum_factors(p), p


def test_quantum_factors_reject_a_prime_above_the_largest_n():
    # [13]! evaluates to 13! at q = 1, and 13 is no product of n <= 12; the
    # exhaustive search tries every order of the factors of [12]! first
    for n in (13, 14, 20):
        assert quantum_factors(LaurentPoly.qfact(n)) is None
    assert quantum_factors(LaurentPoly.qint(13) * LaurentPoly.qint(2)) is None


def test_hash_is_cached_and_equal_polynomials_hash_equal():
    a = LaurentPoly({-1: 2, 3: -1})
    b = LaurentPoly({3: -1, -1: 2})
    first = hash(a)
    # b's hash is computed, a's read back from its slot
    assert hash(b) == first == hash(a)
    assert hash(LaurentPoly({})) == hash(LaurentPoly.zero())
    assert len({a, b, LaurentPoly({-1: 2})}) == 2


def _library_results():
    """A B3 canonical table, written to a cache and read back, the F4 solves up
    to the highest root and the A5 Gram matrix of the paper's slice, each on
    fresh root systems."""
    import tempfile

    from klrchar import verify
    from klrchar.canonical import CanonicalTable
    from klrchar.cartan import CartanType, RootSystem
    from klrchar.convex import lyndon_order
    from klrchar.pbw import PBWCharacters

    def plain(ch):
        return {w: dict(c.c) for w, c in ch.items()}

    order = lyndon_order(RootSystem(CartanType("B", 3)))
    with tempfile.TemporaryDirectory() as cache_dir:
        table = CanonicalTable(order, cache_dir=cache_dir)
        kps = table.compute_weight((1, 2, 2))
        reloaded = CanonicalTable(order, cache_dir=cache_dir)
    assert reloaded._table.keys() == set(kps)
    f4 = RootSystem(CartanType("F", 4))
    pbw = PBWCharacters(lyndon_order(f4))
    top = max(f4.positive_roots, key=sum)
    gram = verify.willcex_module().gram_matrix(verify.WILLCEX_WORD, 0)
    return ({lam: plain(table.char(lam)) for lam in kps},
            {lam: plain(reloaded.char(lam)) for lam in kps}, plain(pbw.dual_root(top)), gram)


def test_no_library_path_writes_a_coefficient(monkeypatch):
    # every .c becomes a read-only view of a private copy: a write through
    # .c raises, and a write to the dict a caller passed in is not seen
    from types import MappingProxyType

    from klrchar import verify

    want = _library_results()

    def frozen_init(self, c=None):
        self.c = MappingProxyType(dict(c) if c is not None else {})

    monkeypatch.setattr(LaurentPoly, "__init__", frozen_init)
    monkeypatch.setattr(verify, "_RS_CACHE", {})
    with pytest.raises(TypeError):
        LaurentPoly.one().c[0] = 2
    assert _library_results() == want
