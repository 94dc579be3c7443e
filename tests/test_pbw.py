import random
from itertools import permutations

import pytest

from klrchar.cartan import CartanType, RootSystem
from klrchar.convex import (lyndon_order, minimal_pairs,
                            order_from_reduced_word, random_reduced_word)
from klrchar.kostant import kostant_partitions, kp_less, kp_scalars
from klrchar.laurent import ExactDivisionError, LaurentPoly, PowerSeries
from klrchar.pbw import (PBWCharacters, char_projective, dim_formula, dim_H,
                         dim_standard, standard_divisor)
from klrchar.shuffle import (deg_stat, is_bar_invariant, sh_dim, sh_eq, sh_scale,
                             sh_sub, sh_word, shuffle)
from klrchar.verify import weights_up_to


def oracle_numerator(j, rs):
    """Oracle: sum over all permutations w of q^{deg(w; j)} w(j)."""
    acc = {}
    for perm in permutations(range(len(j))):
        word = [0] * len(j)
        for k, target in enumerate(perm):
            word[target] = j[k]
        exps = acc.setdefault(tuple(word), {})
        e = deg_stat(perm, j, rs)
        exps[e] = exps.get(e, 0) + 1
    return {w: LaurentPoly(exps) for w, exps in acc.items()}


def oracle_divisor(j, rs):
    div = LaurentPoly.one()
    for letter in j:
        div = div * (LaurentPoly.one() - LaurentPoly.term(1, 2 * rs.d[letter - 1]))
    return div


def oracle_char_projective(j, rs, trunc):
    div = oracle_divisor(j, rs)
    return {w: PowerSeries.from_poly(c, trunc).div_poly(div)
            for w, c in oracle_numerator(j, rs).items()}


def oracle_dim_H(weight, rs, trunc):
    letters = [i + 1 for i, c in enumerate(weight) for _ in range(c)]
    total = PowerSeries({}, trunc)
    for j in sorted(set(permutations(letters))):
        for c in oracle_char_projective(j, rs, trunc).values():
            total = total + c
    return total


def setup_type(fam, rank):
    rs = RootSystem(CartanType(fam, rank))
    o = lyndon_order(rs)
    return rs, o, PBWCharacters(o)


def test_dual_root_simple():
    rs, o, pbw = setup_type("A", 2)
    assert pbw.dual_root((1, 0)) == {(1,): LaurentPoly.one()}


def test_dual_root_a2():
    rs, o, pbw = setup_type("A", 2)
    # oracle: (1 o 2 - q 2 o 1) / (1 - q^2) computed by hand equals 12
    num = sh_sub(shuffle(sh_word((1,)), sh_word((2,)), rs),
                 sh_scale(shuffle(sh_word((2,)), sh_word((1,)), rs),
                          LaurentPoly.term(1, 1)))
    assert num == {(1, 2): LaurentPoly({0: 1, 2: -1})}
    assert pbw.dual_root((1, 1)) == {(1, 2): LaurentPoly.one()}


def test_dual_root_g2():
    rs, o, pbw = setup_type("G", 2)
    got = pbw.dual_root((3, 1))
    assert got == {(1, 1, 1, 2): LaurentPoly.qint(2) * LaurentPoly.qint(3)}


def test_bar_invariance_all_roots():
    rng = random.Random(77)
    for fam, rank in [("A", 3), ("B", 3), ("G", 2), ("D", 4)]:
        rs = RootSystem(CartanType(fam, rank))
        orders = [lyndon_order(rs)]
        for _ in range(3):
            orders.append(order_from_reduced_word(random_reduced_word(rs, rng), rs))
        for o in orders:
            pbw = PBWCharacters(o)
            for alpha in rs.positive_roots:
                assert is_bar_invariant(pbw.dual_root(alpha)), (fam, rank, alpha)


def test_mp_independence():
    # the character depends on the ordering, not on which minimal pair solves it
    for fam, rank in [("A", 3), ("B", 3), ("G", 2)]:
        rs = RootSystem(CartanType(fam, rank))
        o = lyndon_order(rs)
        pbw = PBWCharacters(o)
        for alpha in rs.positive_roots:
            if sum(alpha) < 2:
                continue
            want = pbw.dual_root(alpha)
            for beta, gamma in minimal_pairs(alpha, o):
                got = pbw._solve(alpha, beta, gamma)
                assert sh_eq(got, want), (fam, alpha, beta, gamma)


def test_proper_standard_examples():
    rs, o, pbw = setup_type("A", 2)
    got = pbw.proper_standard(((0, 1), (1, 0)))
    assert got == {(2, 1): LaurentPoly.one(), (1, 2): LaurentPoly.term(1, 1)}
    rs1, o1, pbw1 = setup_type("A", 1)
    got2 = pbw1.proper_standard(((1,), (1,)))
    assert got2 == {(1, 1): LaurentPoly.qint(2)}
    # singleton is the dual root character
    assert pbw.proper_standard(((1, 1),)) == pbw.dual_root((1, 1))


def test_dim_standard_a1():
    rs, o, pbw = setup_type("A", 1)
    got = dim_standard(((1,),), pbw, 10)
    assert got == {(1,): PowerSeries({2 * k: 1 for k in range(6)}, 10)}
    got2 = dim_standard(((1,), (1,)), pbw, 6)
    # [2] 11 / (1-q^2)(1-q^4) expanded
    series = PowerSeries.from_poly(LaurentPoly.qint(2), 6).div_poly(
        (LaurentPoly.one() - LaurentPoly.term(1, 2))
        * (LaurentPoly.one() - LaurentPoly.term(1, 4)))
    assert got2 == {(1, 1): series}


def test_dim_standard_multiplicity_free():
    rs, o, pbw = setup_type("A", 2)
    lam = ((0, 1), (1, 0))
    got = dim_standard(lam, pbw, 8)
    div = standard_divisor(lam, rs)
    ch = pbw.proper_standard(lam)
    for w, c in ch.items():
        assert got[w] == PowerSeries.from_poly(c, 8).div_poly(div)


def test_dim_H_examples():
    rs, o, pbw = setup_type("A", 1)
    assert dim_H((1,), rs, 10) == PowerSeries({2 * k: 1 for k in range(6)}, 10)
    lhs = dim_H((2,), rs, 8)
    num = PowerSeries.from_poly(LaurentPoly({0: 1, -2: 1}), 8)
    d = LaurentPoly.one() - LaurentPoly.term(1, 2)
    assert lhs == num.div_poly(d * d)


def test_dim_H_at_height_nine():
    # no height guard: both sides of the dimension formula agree at height 9
    for fam, rank, weight in [("G", 2, (3, 6)), ("A", 2, (4, 5))]:
        rs, o, pbw = setup_type(fam, rank)
        lhs, rhs = dim_formula(weight, pbw, 10)
        assert lhs == dim_H(weight, rs, 10)
        assert lhs == rhs, weight


def test_restriction_vanishing_and_top():
    # res to mu of the lambda product: zero unless mu <= lambda, and at
    # lambda equal to [lambda]! times the product of part characters
    from klrchar.shuffle import restrict_character

    for fam, rank in [("A", 3), ("B", 3), ("G", 2)]:
        rs = RootSystem(CartanType(fam, rank))
        o = lyndon_order(rs)
        pbw = PBWCharacters(o)
        for alpha in rs.positive_roots:
            if sum(alpha) > 5:
                continue
            kps = kostant_partitions(alpha, o)
            for lam in kps:
                ch = pbw.proper_standard(lam)
                for mu in kps:
                    got = restrict_character(ch, list(mu), rs)
                    if mu == lam:
                        fact = kp_scalars(lam, o)[0]
                        expect = {}

                        def build(idx, key, coeff):
                            if idx == len(lam):
                                expect[tuple(key)] = coeff
                                return
                            for w, c in pbw.dual_root(lam[idx]).items():
                                build(idx + 1, key + [w], coeff * c)

                        build(0, [], fact)
                        assert got == expect, (fam, lam)
                    elif not (kp_less(mu, lam, o)):
                        assert got == {}, (fam, lam, mu)


def test_unitriangular_words():
    # coefficient of the mu word vanishes unless mu <= lambda; at lambda it
    # is the factorial times the kappa product
    for fam, rank in [("A", 3), ("G", 2)]:
        rs = RootSystem(CartanType(fam, rank))
        o = lyndon_order(rs)
        pbw = PBWCharacters(o)
        for alpha in rs.positive_roots:
            kps = kostant_partitions(alpha, o)
            for lam in kps:
                ch = pbw.proper_standard(lam)
                for mu in kps:
                    word = kp_scalars(mu, o)[3]
                    coeff = ch.get(word)
                    if mu == lam:
                        continue
                    if not kp_less(mu, lam, o):
                        assert coeff is None, (fam, lam, mu)


def test_char_projective_regular_a1():
    rs, o, pbw = setup_type("A", 1)
    got = char_projective((1,), rs, 10)
    assert got == {(1,): PowerSeries({2 * k: 1 for k in range(6)}, 10)}


@pytest.mark.parametrize("fam,rank", [("G", 2), ("B", 3), ("C", 3), ("D", 4),
                                      ("F", 4), ("E", 6)])
def test_char_projective_matches_permutation_sum(fam, rank):
    rs = RootSystem(CartanType(fam, rank))
    rng = random.Random(rank * 31 + ord(fam))
    for n in range(1, 7):
        for _ in range(3):
            j = tuple(rng.randint(1, rank) for _ in range(n))
            assert char_projective(j, rs, 10) == oracle_char_projective(j, rs, 10), j


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_dim_H_matches_permutation_sum(fam, rank):
    rs, o, pbw = setup_type(fam, rank)
    for weight in weights_up_to(rs, 5):
        want = oracle_dim_H(weight, rs, 10)
        assert dim_H(weight, rs, 10) == want, weight
        # and the sum over Kostant partitions, the formula's other side
        assert dim_formula(weight, pbw, 10)[1] == want, weight


def headroom_sum_side(weight, pbw, trunc):
    """Oracle: Dim Delta expanded past trunc by the negative tail of Dim bar-Delta,
    times Dim bar-Delta, cut back to trunc."""
    rhs = PowerSeries({}, trunc)
    for lam in kostant_partitions(weight, pbw.order):
        dbar = sh_dim(pbw.proper_standard(lam))
        work = trunc + max(0, -dbar.min_exp())
        ddelta = PowerSeries.from_poly(dbar, work).div_poly(standard_divisor(lam, pbw.rs))
        rhs = rhs + (ddelta * dbar).truncate(trunc)
    return rhs


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_dim_formula_sum_side_needs_no_headroom(fam, rank):
    rs, o, pbw = setup_type(fam, rank)
    for weight in weights_up_to(rs, 5):
        for trunc in (6, 10, 12):
            got = dim_formula(weight, pbw, trunc)[1]
            assert got == headroom_sum_side(weight, pbw, trunc), (weight, trunc)


def test_inexact_division_detected():
    rs, o, pbw = setup_type("A", 2)
    with pytest.raises(ExactDivisionError):
        # corrupt: wrong p makes the division fail
        cb = pbw.dual_root((0, 1))
        cg = pbw.dual_root((1, 0))
        num = sh_sub(shuffle(cg, cb, rs),
                     sh_scale(shuffle(cb, cg, rs), LaurentPoly.term(1, 1)))
        bad_div = LaurentPoly({-1: 1}) - LaurentPoly({3: 1})
        for w, c in num.items():
            c.exact_div(bad_div)
