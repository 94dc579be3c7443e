import pytest

from klrchar.cartan import CartanType, RootSystem, check_cases_identity, p_max

CLASSICAL_COUNTS = {
    ("A", 2): 3, ("A", 3): 6, ("A", 5): 15,
    ("B", 2): 4, ("B", 3): 9, ("C", 3): 9,
    ("D", 4): 12, ("D", 5): 20,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}


def test_rank_validation():
    with pytest.raises(ValueError):
        CartanType("D", 3)
    with pytest.raises(ValueError):
        CartanType("E", 9)
    with pytest.raises(ValueError):
        CartanType("X", 2)
    CartanType("A", 1)


def test_a2_data():
    rs = RootSystem(CartanType("A", 2))
    assert rs.cartan == ((2, -1), (-1, 2))
    assert rs.d == (1, 1)
    assert len(rs.positive_roots) == 3


def test_g2_data():
    rs = RootSystem(CartanType("G", 2))
    assert rs.d == (1, 3)
    assert rs.form((1, 0), (0, 1)) == -3


@pytest.mark.parametrize("family,rank", sorted(CLASSICAL_COUNTS))
def test_positive_root_counts(family, rank):
    rs = RootSystem(CartanType(family, rank))
    assert len(rs.positive_roots) == CLASSICAL_COUNTS[(family, rank)]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3),
                                         ("D", 4), ("F", 4), ("G", 2)])
def test_cartan_invariants(family, rank):
    rs = RootSystem(CartanType(family, rank))
    r = rs.rank
    for i in range(r):
        assert rs.cartan[i][i] == 2
        for j in range(r):
            if i != j:
                assert rs.cartan[i][j] <= 0
            assert rs.d[i] * rs.cartan[i][j] == rs.d[j] * rs.cartan[j][i]
            assert rs.form(rs.simple_root(i), rs.simple_root(j)) == \
                rs.d[i] * rs.cartan[i][j]
    for b in rs.positive_roots:
        assert rs.d_root(b) in (1, 2, 3)
        assert rs.form(b, b) > 0
    # positive definiteness on sampled lattice vectors
    import random
    rng = random.Random(7)
    for _ in range(50):
        v = tuple(rng.randint(-3, 3) for _ in range(r))
        if any(v):
            assert rs.form(v, v) > 0


def test_p_max_examples():
    rs = RootSystem(CartanType("A", 2))
    # any simply-laced summable pair has p = 0
    assert p_max(rs, (1, 0), (0, 1)) == 0
    g2 = RootSystem(CartanType("G", 2))
    assert p_max(g2, (2, 1), (1, 0)) == 2
    b2 = RootSystem(CartanType("B", 2))
    # short + short = long: alpha_{r-1}+alpha_r and alpha_r are both short in B2
    short_sum, short = (1, 1), (0, 1)
    assert b2.d_root(short_sum) == 1 and b2.d_root(short) == 1
    assert b2.d_root(tuple(a + b for a, b in zip(short_sum, short))) == 2
    assert p_max(b2, short_sum, short) == 1


def test_p_max_equal_roots():
    rs = RootSystem(CartanType("A", 2))
    # beta = gamma: beta - 2 gamma = -beta is a root
    assert p_max(rs, (1, 0), (1, 0)) == 2


def test_p_max_refuses_a_beta_that_is_not_a_root():
    # (-1, 1) is no root of A2, but (-1, 1) + (1, 0) is: a scan over
    # negative p would answer -1
    rs = RootSystem(CartanType("A", 2))
    assert (0, 1) in rs.root_set and (-1, 1) not in rs.root_set
    with pytest.raises(ValueError, match="not a root"):
        p_max(rs, (-1, 1), (1, 0))


def scan_p_max(rs, beta, gamma):
    """p_max as a scan of every p within twice the highest height."""
    hi = 2 * max(sum(abs(c) for c in b) for b in rs.positive_roots)
    ps = [p for p in range(-hi, hi + 1)
          if tuple(b - p * g for b, g in zip(beta, gamma)) in rs.root_set]
    return max(ps)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("F", 4), ("G", 2)])
def test_p_max_matches_full_scan(family, rank):
    # p_max tries p = 3, ..., 0 only
    rs = RootSystem(CartanType(family, rank))
    for beta in rs.positive_roots:
        for gamma in rs.positive_roots:
            assert p_max(rs, beta, gamma) == scan_p_max(rs, beta, gamma), (beta, gamma)


def test_p_max_matches_full_scan_on_e8_decompositions():
    # every pair of positive roots of E8 takes seconds to scan; these are
    # the pairs the solves and the scale factors ask for
    rs = RootSystem(CartanType("E", 8))
    pairs = [bg for alpha in rs.positive_roots for bg in rs.decompositions(alpha)]
    assert len(pairs) > 1000
    for beta, gamma in pairs:
        assert p_max(rs, beta, gamma) == scan_p_max(rs, beta, gamma), (beta, gamma)


def test_root_string_contiguous():
    for fam, rank in [("B", 3), ("G", 2), ("A", 3)]:
        rs = RootSystem(CartanType(fam, rank))
        for beta in rs.positive_roots:
            for gamma in rs.positive_roots:
                if beta == gamma:
                    continue
                ps = [p for p in range(-8, 9)
                      if tuple(b - p * g for b, g in zip(beta, gamma)) in rs.root_set]
                if ps and tuple(-b for b in beta) != gamma:
                    assert ps == list(range(min(ps), max(ps) + 1))
                assert p_max(rs, beta, gamma) == max(ps) if ps else True


def test_cases_identity_a2():
    rs = RootSystem(CartanType("A", 2))
    assert check_cases_identity(rs, (1, 1), (1, 0), (0, 1))


def test_cases_identity_g2_triple():
    rs = RootSystem(CartanType("G", 2))
    assert check_cases_identity(rs, (3, 1), (2, 1), (1, 0))


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("F", 4), ("G", 2)])
def test_cases_identity_exhaustive(family, rank):
    rs = RootSystem(CartanType(family, rank))
    count = 0
    for beta in rs.positive_roots:
        for gamma in rs.positive_roots:
            alpha = tuple(b + g for b, g in zip(beta, gamma))
            if alpha in rs.positive_set:
                assert check_cases_identity(rs, alpha, beta, gamma)
                # beta.gamma = d_alpha - d_beta - d_gamma on summable pairs
                assert rs.form(beta, gamma) == (
                    rs.d_root(alpha) - rs.d_root(beta) - rs.d_root(gamma))
                count += 1
    assert count > 0


def test_precondition_errors():
    rs = RootSystem(CartanType("A", 2))
    with pytest.raises(ValueError):
        check_cases_identity(rs, (1, 1), (1, 0), (1, 0))


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4),
                                         ("E", 6), ("F", 4), ("G", 2)])
def test_decompositions_match_double_loop(family, rank):
    rs = RootSystem(CartanType(family, rank))
    pos = rs.positive_roots
    for alpha in pos:
        brute = {(b, g) for b in pos for g in pos
                 if tuple(x + y for x, y in zip(b, g)) == alpha}
        got = rs.decompositions(alpha)
        assert len(got) == len(brute)
        assert set(got) == brute
        assert rs.decompositions(alpha) is got
