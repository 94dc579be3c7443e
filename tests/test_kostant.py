import random
from itertools import combinations_with_replacement

import pytest

from klrchar.cartan import CartanType, RootSystem
from klrchar.convex import lyndon_order, order_from_reduced_word, random_reduced_word
from klrchar.kostant import (kostant_partitions, kp_less, kp_scalars, kp_sort_key,
                             root_kappa)
from klrchar.laurent import LaurentPoly
from klrchar.verify import weights_up_to


def setup_type(fam, rank):
    rs = RootSystem(CartanType(fam, rank))
    return rs, lyndon_order(rs)


def brute_force_kps(weight, order):
    """Oracle: all weakly decreasing root sequences by raw enumeration."""
    rs = order.rs
    out = set()
    maxlen = sum(weight)

    def rec(rem, acc):
        if all(c == 0 for c in rem):
            out.add(tuple(acc))
            return
        for b in rs.positive_roots:
            if acc and order.rank_of[b] > order.rank_of[acc[-1]]:
                continue
            nxt = tuple(r - c for r, c in zip(rem, b))
            if all(c >= 0 for c in nxt):
                acc.append(b)
                rec(nxt, acc)
                acc.pop()

    rec(tuple(weight), [])
    return out


def test_kp_a2():
    rs, o = setup_type("A", 2)
    got = set(kostant_partitions((1, 1), o))
    assert got == {((1, 1),), ((0, 1), (1, 0))}


def test_kp_a3_highest_root():
    rs, o = setup_type("A", 3)
    kps = kostant_partitions((1, 1, 1), o)
    assert len(kps) == 4
    assert set(kps) == brute_force_kps((1, 1, 1), o)


def test_kp_multiplicity():
    rs, o = setup_type("A", 1)
    assert kostant_partitions((2,), o) == [((1,), (1,))]


def test_kp_empty_weight():
    rs, o = setup_type("A", 2)
    assert kostant_partitions((0, 0), o) == [()]


def test_kp_matches_oracle():
    for fam, rank in [("B", 3), ("G", 2)]:
        rs, o = setup_type(fam, rank)
        for weight in [(1, 1, 1), (2, 1, 0), (0, 2, 2)] if rank == 3 else [(3, 1), (3, 2), (2, 2)]:
            assert set(kostant_partitions(weight, o)) == brute_force_kps(weight, o)


def test_kp_come_in_display_order():
    # callers print and compute in the enumeration order, with no sort after it
    cases = 0
    for fam, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]:
        rs, lyndon = setup_type(fam, rank)
        rng = random.Random(rank * 1000 + ord(fam))
        orders = [lyndon] + [order_from_reduced_word(random_reduced_word(rs, rng), rs)
                             for _ in range(3)]
        for o in orders:
            for weight in weights_up_to(rs, 5):
                kps = kostant_partitions(weight, o)
                assert kps == sorted(kps, key=lambda l: kp_sort_key(l, o)), (fam, weight)
                cases += 1
    assert cases == 2020


def test_kp_less_examples():
    rs, o = setup_type("A", 2)
    single = ((1, 1),)
    double = ((0, 1), (1, 0))
    assert kp_less(single, double, o)
    assert not kp_less(double, single, o)
    assert not kp_less(single, single, o)
    with pytest.raises(ValueError):
        kp_less(single, (((1, 0),)), o)


def test_kp_poset_axioms():
    for fam, rank in [("A", 3), ("B", 3), ("G", 2)]:
        rs, o = setup_type(fam, rank)
        weights = set()
        for h in range(2, 7):
            for combo in combinations_with_replacement(range(rank), h):
                w = [0] * rank
                for i in combo:
                    w[i] += 1
                weights.add(tuple(w))
        for weight in sorted(weights):
            kps = kostant_partitions(weight, o)
            if len(kps) > 24:
                continue
            for lam in kps:
                assert not kp_less(lam, lam, o)
                for mu in kps:
                    if kp_less(lam, mu, o):
                        assert not kp_less(mu, lam, o)
                    for nu in kps:
                        if kp_less(lam, mu, o) and kp_less(mu, nu, o):
                            assert kp_less(lam, nu, o)


def test_scalars_equal_pair():
    rs, o = setup_type("B", 2)
    for beta in rs.positive_roots:
        fact, s, kappa, word = kp_scalars((beta, beta), o)
        assert s == rs.d_root(beta)
        assert fact == LaurentPoly.qfact(2, rs.d_root(beta))


def test_scalars_g2_root():
    rs, o = setup_type("G", 2)
    fact, s, kappa, word = kp_scalars(((3, 1),), o)
    assert kappa == LaurentPoly.qint(2) * LaurentPoly.qint(3)
    assert word == (1, 1, 1, 2)
    assert s == 0 and fact == LaurentPoly.one()


def test_scalars_a2_two_parts():
    rs, o = setup_type("A", 2)
    fact, s, kappa, word = kp_scalars(((0, 1), (1, 0)), o)
    assert word == (2, 1)
    assert kappa == LaurentPoly.one()
    assert fact == LaurentPoly.one()
    assert s == 0


def test_kappa_trivial_simply_laced():
    for fam, rank in [("A", 4), ("D", 4)]:
        rs, o = setup_type(fam, rank)
        for alpha in rs.positive_roots:
            assert root_kappa(alpha, o) == LaurentPoly.one()


def test_kappa_trivial_multiplicity_free():
    # resolutions.resolution relies on this: with no coefficient above 1 the
    # two roots of each minimal pair have disjoint supports, so p = 0 at
    # every node of the recursion
    types = [("A", 8), ("B", 3), ("B", 5), ("C", 3), ("C", 5), ("D", 6), ("E", 6),
             ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    for fam, rank in types:
        rs, lyndon = setup_type(fam, rank)
        rng = random.Random(f"{fam}{rank}")
        orders = [lyndon] + [order_from_reduced_word(random_reduced_word(rs, rng), rs)
                             for _ in range(3)]
        for o in orders:
            for alpha in rs.positive_roots:
                if all(c <= 1 for c in alpha):
                    assert root_kappa(alpha, o) == LaurentPoly.one(), (fam, rank, o.label, alpha)


def test_unique_minimum_powers():
    for fam, rank in [("A", 3), ("B", 3), ("G", 2)]:
        rs, o = setup_type(fam, rank)
        for alpha in rs.positive_roots:
            for m in (1, 2, 3):
                weight = tuple(m * c for c in alpha)
                if sum(weight) > 6:
                    continue
                bottom = tuple([alpha] * m)
                for lam in kostant_partitions(weight, o):
                    if lam != bottom:
                        assert kp_less(bottom, lam, o)


def test_minimal_above_root_has_two_parts():
    for fam, rank in [("A", 3), ("B", 3), ("G", 2)]:
        rs, o = setup_type(fam, rank)
        for alpha in rs.positive_roots:
            if not 2 <= sum(alpha) <= 6:
                continue
            kps = kostant_partitions(alpha, o)
            top = (alpha,)
            above = [lam for lam in kps if lam != top and kp_less(top, lam, o)]
            for lam in above:
                if not any(mu != lam and kp_less(top, mu, o) and kp_less(mu, lam, o)
                           for mu in above):
                    assert len(lam) == 2
