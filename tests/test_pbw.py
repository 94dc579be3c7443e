import random
from itertools import permutations

import pytest

from klrchar.cartan import CartanType, RootSystem
from klrchar.convex import (lyndon_order, minimal_pairs, mp_choice,
                            order_from_reduced_word, random_reduced_word)
from klrchar.kostant import kostant_partitions, kp_less, kp_scalars
from klrchar.laurent import ExactDivisionError, LaurentPoly, series
from klrchar import pbw as pbw_mod
from klrchar.cartan import p_max
from klrchar.pbw import (PBWCharacters, char_projective, dim_formula, dim_H, dim_standard,
                         standard_divisor)
from klrchar.shuffle import (Packed, deg_stat, is_bar_invariant, pack, q_commutator, sh_dim,
                             sh_eq, sh_scale, sh_sub, sh_word, shuffle)
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


def oracle_char_projective(j, rs):
    return oracle_numerator(j, rs), oracle_divisor(j, rs)


def oracle_dim_H(weight, rs):
    """Oracle: (numerator, divisor); every word of the weight shares the divisor."""
    letters = [i + 1 for i, c in enumerate(weight) for _ in range(c)]
    total = LaurentPoly.zero()
    for j in sorted(set(permutations(letters))):
        num, div = oracle_char_projective(j, rs)
        for c in num.values():
            total = total + c
    return total, div


GEOMETRIC = {2 * k: 1 for k in range(6)}  # 1 / (1 - q^2) to q^10


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
    one_minus = [LaurentPoly({0: 1, 2 * k: -1}) for k in (1, 2)]
    num, div = dim_standard(((1,),), pbw)
    assert (num, div) == ({(1,): LaurentPoly.one()}, one_minus[0])
    assert series(num[(1,)], div, 10) == GEOMETRIC
    # [2] 11 / (1-q^2)(1-q^4)
    assert dim_standard(((1,), (1,)), pbw) == ({(1, 1): LaurentPoly.qint(2)},
                                               one_minus[0] * one_minus[1])


def test_dim_standard_multiplicity_free():
    rs, o, pbw = setup_type("A", 2)
    lam = ((0, 1), (1, 0))
    num, div = dim_standard(lam, pbw)
    assert num == pbw.proper_standard(lam)
    one_minus = LaurentPoly({0: 1, 2: -1})
    assert div == standard_divisor(lam, rs) == one_minus * one_minus


def test_dim_H_examples():
    rs, o, pbw = setup_type("A", 1)
    num, div = dim_H((1,), rs)
    assert series(num, div, 10) == GEOMETRIC
    d = LaurentPoly({0: 1, 2: -1})
    assert dim_H((2,), rs) == (LaurentPoly({0: 1, -2: 1}), d * d)


def test_dim_H_at_height_nine():
    # no height guard: both sides of the dimension formula agree at height 9
    for fam, rank, weight in [("G", 2, (3, 6)), ("A", 2, (4, 5))]:
        rs, o, pbw = setup_type(fam, rank)
        lhs, rhs, den = dim_formula(weight, pbw)
        num, div = dim_H(weight, rs)
        assert lhs * div == num * den
        assert lhs == rhs, weight


def test_dim_formula_common_multiple():
    # A1 at 2: projective divisor (1-q^2)^2, S_(1,1) = (1-q^2)(1-q^4); the
    # common multiple takes each factor at its largest multiplicity
    rs, o, pbw = setup_type("A", 1)
    d1, d2 = (LaurentPoly({0: 1, 2 * k: -1}) for k in (1, 2))
    lhs, rhs, den = dim_formula((2,), pbw)
    assert den == d1 * d1 * d2
    assert lhs == rhs == LaurentPoly({0: 1, -2: 1}) * d2


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
    num, div = char_projective((1,), rs)
    assert num == {(1,): LaurentPoly.one()}
    assert series(num[(1,)], div, 10) == GEOMETRIC


@pytest.mark.parametrize("fam,rank", [("G", 2), ("B", 3), ("C", 3), ("D", 4),
                                      ("F", 4), ("E", 6)])
def test_char_projective_matches_permutation_sum(fam, rank):
    rs = RootSystem(CartanType(fam, rank))
    rng = random.Random(rank * 31 + ord(fam))
    for n in range(1, 7):
        for _ in range(3):
            j = tuple(rng.randint(1, rank) for _ in range(n))
            assert char_projective(j, rs) == oracle_char_projective(j, rs), j


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_dim_H_matches_permutation_sum(fam, rank):
    rs, o, pbw = setup_type(fam, rank)
    for weight in weights_up_to(rs, 5):
        want, div = oracle_dim_H(weight, rs)
        assert dim_H(weight, rs) == (want, div), weight
        # and the sum over Kostant partitions, the formula's other side,
        # over its own common multiple
        lhs, rhs, den = dim_formula(weight, pbw)
        assert lhs * div == want * den, weight
        assert rhs * div == want * den, weight


def termwise_sum_side(weight, pbw, trunc):
    """Sum over lambda of the q^trunc expansions of Dim bar-Delta^2 / S_lambda."""
    total = {}
    for lam in kostant_partitions(weight, pbw.order):
        dbar = sh_dim(pbw.proper_standard(lam))
        for e, a in series(dbar * dbar, standard_divisor(lam, pbw.rs), trunc).items():
            total[e] = total.get(e, 0) + a
    return {e: a for e, a in total.items() if a}


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_dim_formula_sum_side_needs_no_headroom(fam, rank):
    # each S_lambda has lowest term 1, so term-wise expansions to q^trunc add
    # up to the expansion of the exact sum, with no headroom past trunc
    rs, o, pbw = setup_type(fam, rank)
    for weight in weights_up_to(rs, 5):
        lhs, rhs, den = dim_formula(weight, pbw)
        for trunc in (6, 10, 12):
            got = series(rhs, den, trunc)
            assert got == termwise_sum_side(weight, pbw, trunc), (weight, trunc)


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


def test_packed_division_is_decided_by_the_remainder():
    # at the width Packed.of picks, the integer remainder alone says whether
    # 1 - q^k divides: Laurent polynomials with |x|_1 up to 2^7 - 1 at 8 bits,
    # divisible and not, against exact_div
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        k = rng.randint(1, 3)
        x = LaurentPoly({rng.randint(-3, 4): rng.randint(-40, 40)
                         for _ in range(rng.randint(1, 4))})
        if rng.random() < 0.5:
            x = x * LaurentPoly({0: 1, k: -1})
        if not x or sum(map(abs, x.c.values())) > 127:
            continue
        packed = Packed.of({(1,): x})
        assert packed.width == 8
        shift = rng.randint(-2, 2)
        [(word, got)] = packed.div_one_minus_qk(k, shift)
        try:
            want = (x * LaurentPoly.term(1, shift)).exact_div(LaurentPoly({0: 1, k: -1}))
        except ExactDivisionError:
            want = None
        assert (word, got) == ((1,), want), (x, k, shift)
        seen[want is None] += 1
    assert min(seen.values()) > 500
    # below the bound the integers can be fooled: 100 + 100 q + 55 q^2 at
    # 8 bits is a multiple of 1 - 2^8, but 1 - q does not divide it; its
    # bound 255 takes 16 bits, where the remainder is not 0
    x = {0: 100, 1: 100, 2: 55}
    assert pack(x, 8, 0) % (1 - 2**8) == 0
    packed = Packed.of({(1,): LaurentPoly(x)})
    assert packed.width == 16
    assert list(packed.div_one_minus_qk(1)) == [((1,), None)]


def test_solve_reports_an_inexact_division(monkeypatch):
    # a wrong p_max makes the q-commutator indivisible: the integer division
    # leaves a remainder, and the error names the word
    rs, o, pbw = setup_type("B", 3)
    monkeypatch.setattr(pbw_mod, "p_max", lambda rs, b, g: 5)
    with pytest.raises(ExactDivisionError, match=r"scale-factor division failed at "
                                                 r"word \(.*\) for root \(1, 1, 0\) "
                                                 r"\(order lyndon\)"):
        pbw.dual_root((1, 1, 0))


def test_solve_matches_exact_division():
    # every quotient the packed division returns times the divisor gives back
    # the q-commutator, over all roots of F4 and E6
    for fam, rank in [("F", 4), ("E", 6)]:
        rs, o, pbw = setup_type(fam, rank)
        for alpha in rs.positive_roots:
            if sum(alpha) == 1:
                continue
            beta, gamma = mp_choice(alpha, o)
            p, bg = p_max(rs, beta, gamma), rs.form(beta, gamma)
            div = LaurentPoly({-p: 1}) - LaurentPoly({p - 2 * bg: 1})
            num = q_commutator(pbw.dual_root(gamma), pbw.dual_root(beta), -bg, rs)
            assert sh_eq(sh_scale(pbw.dual_root(alpha), div), num), alpha


# solves are memoized per root system on the identities of their two input
# characters; the reference is a fresh root system per order, sharing nothing
MEMO_TYPES = [("F", 4), ("B", 3), ("D", 4), ("G", 2)]


def memo_order(rs, word):
    return lyndon_order(rs) if word is None else order_from_reduced_word(word, rs)


@pytest.mark.parametrize("fam,rank", MEMO_TYPES)
def test_solve_memo_matches_fresh_root_systems(fam, rank, monkeypatch):
    ct = CartanType(fam, rank)
    rs = RootSystem(ct)
    rng = random.Random(13)
    words = [random_reduced_word(rs, rng) for _ in range(30)]
    solved = []
    solve = PBWCharacters._solve

    def counting(self, alpha, beta, gamma):
        if self.rs is rs:
            solved.append(alpha)
        return solve(self, alpha, beta, gamma)

    monkeypatch.setattr(PBWCharacters, "_solve", counting)
    inputs = set()
    for word in [None] + words:
        order = memo_order(rs, word)
        shared = PBWCharacters(order)
        fresh = PBWCharacters(memo_order(RootSystem(ct), word))
        for alpha in rs.positive_roots:
            assert shared.dual_root(alpha) == fresh.dual_root(alpha), (word, alpha)
            if sum(alpha) > 1:
                beta, gamma = mp_choice(alpha, order)
                inputs.add((frozenset(shared.dual_root(beta).items()),
                            frozenset(shared.dual_root(gamma).items())))
    # one solve per distinct pair of input characters, compared by value
    assert len(solved) == len(inputs)


def test_new_root_system_starts_with_empty_memos():
    ct = CartanType("B", 3)
    rs = RootSystem(ct)
    pbw = PBWCharacters(lyndon_order(rs))
    for lam in kostant_partitions((1, 2, 2), pbw.order):
        pbw.proper_standard(lam)
    assert rs._solves and rs._root_chars and rs._shuffle_pair_cache and rs._shuffle_words
    fresh = RootSystem(ct)
    assert (fresh._solves == fresh._root_chars == fresh._shuffle_pair_cache
            == fresh._shuffle_words == {})


def test_intern_tells_apart_characters_under_one_hash_key():
    # characters are bucketed by the hash of their items; a different
    # character planted in ch's bucket is passed over, not returned
    rs = RootSystem(CartanType("A", 2))
    ch = {(1, 2): LaurentPoly({0: 1}), (2, 1): LaurentPoly({-1: 1})}
    other = {(1, 2): LaurentPoly({0: 1})}
    key = hash(frozenset(ch.items()))
    rs._root_chars[key] = [other]
    assert pbw_mod._intern(ch, rs) is ch
    # an equal character with its own words and coefficients is the stored one
    copy = {tuple(w): LaurentPoly(dict(c.c)) for w, c in ch.items()}
    assert pbw_mod._intern(copy, rs) is ch
    assert rs._root_chars[key] == [other, ch] and rs._root_chars[key][0] is other


def test_root_character_shares_equal_coefficients():
    # the solve decodes each distinct quotient once: the F4 highest root's
    # character holds one coefficient object per distinct value
    rs = RootSystem(CartanType("F", 4))
    ch = PBWCharacters(lyndon_order(rs)).dual_root(max(rs.positive_roots, key=sum))
    assert len({id(c) for c in ch.values()}) == len(set(ch.values())) < len(ch)


def test_pair_memo_serves_element_shuffles_only():
    rs = RootSystem(CartanType("F", 4))
    pbw = PBWCharacters(lyndon_order(rs))
    for alpha in rs.positive_roots:
        pbw.dual_root(alpha)
    # the solves' q-commutators neither read nor fill the word-pair memo
    assert rs._shuffle_pair_cache == {}
    lam = next(lam for lam in kostant_partitions((1, 1, 1, 0), pbw.order) if len(lam) > 1)
    pbw.proper_standard(lam)
    assert rs._shuffle_pair_cache
