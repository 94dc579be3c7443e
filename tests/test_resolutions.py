import pytest

from klrchar.cartan import CartanType, RootSystem
from klrchar.convex import lyndon_order
from klrchar.klr import KLR
from klrchar.laurent import LaurentPoly, series
from klrchar.pbw import PBWCharacters, dim_standard, projective_divisor, standard_divisor
from klrchar.resolutions import (ChainComplex, NotMultiplicityFreeError,
                                 euler_character, euler_matches, expected_euler,
                                 resolution, verify_complex)
from klrchar.shuffle import sh_eq, sh_scale, sh_word, shuffle


def setup(fam, rank):
    rs = RootSystem(CartanType(fam, rank))
    o = lyndon_order(rs)
    return rs, o, KLR(rs)


def oracle_euler_series(cx, rs):
    """Oracle: the Euler characteristic's numerator over the projective
    divisor D, summand by summand.

    A summand's numerator is the pairwise shuffle of its letters, so the
    letter-shuffle fold is not on this path.
    """
    out = {}
    for d, summands in cx.terms.items():
        sign = -1 if d % 2 else 1
        for shift, word in summands:
            num = {(): LaurentPoly.one()}
            for letter in word:
                num = shuffle(num, sh_word((letter,)), rs)
            for w, c in num.items():
                out[w] = out.get(w, LaurentPoly.zero()) + c * LaurentPoly.term(sign, shift)
    return {w: c for w, c in out.items() if c}


def multiplicity_free(rs):
    return [a for a in rs.positive_roots if all(c <= 1 for c in a)]


def test_simple_root_resolution():
    rs, o, H = setup("A", 2)
    cx = resolution((1, 0), o, H)
    assert cx.terms == {0: [(0, (1,))]}
    assert cx.differentials == {}
    assert verify_complex(cx)
    assert oracle_euler_series(cx, rs) == {(1,): LaurentPoly.one()}
    assert series(LaurentPoly.one(), projective_divisor((1, 0), rs), 10) == {
        2 * k: 1 for k in range(6)}
    assert euler_character(cx, o) == {(1,): LaurentPoly.one()}
    assert expected_euler((1, 0), o, PBWCharacters(o)) == {(1,): LaurentPoly.one()}


def test_a2_complex():
    rs, o, H = setup("A", 2)
    cx = resolution((1, 1), o, H)
    assert cx.terms == {0: [(0, (1, 2))], 1: [(1, (2, 1))]}
    assert cx.differentials[1] == [[H.monomial((1, 2), (1, 0))]]
    assert verify_complex(cx)
    pbw = PBWCharacters(o)
    # over D = (1 - q^2)^2 against r*_alpha over S_alpha = 1 - q^2
    num, div = dim_standard(((1, 1),), pbw)
    oracle = oracle_euler_series(cx, rs)
    D = projective_divisor((1, 1), rs)
    assert oracle.keys() == num.keys()
    assert all(oracle[w] * div == num[w] * D for w in num)
    # 12 o 1 - q (2 o 1) = (1 - q^2) 12, over D = (1 - q^2)^2
    want = {(1, 2): LaurentPoly({0: 1, 2: -1})}
    assert euler_character(cx, o) == want
    assert expected_euler((1, 1), o, pbw) == want


def test_a3_complex_matches_published_form():
    rs, o, H = setup("A", 3)
    cx = resolution((1, 1, 1), o, H)
    assert cx.terms == {
        0: [(0, (1, 2, 3))],
        1: [(1, (2, 1, 3)), (1, (3, 1, 2))],
        2: [(2, (3, 2, 1))],
    }
    assert cx.differentials[1] == [
        [H.monomial((1, 2, 3), (1, 0, 2))],
        [H.monomial((1, 2, 3), (1, 2, 0))],
    ]
    assert cx.differentials[2] == [
        [H.monomial((2, 1, 3), (1, 2, 0), coeff=-1),
         H.monomial((3, 1, 2), (0, 2, 1))],
    ]
    assert verify_complex(cx)
    assert euler_matches(cx, o, PBWCharacters(o), 12)


def test_sign_corruption_detected():
    rs, o, H = setup("A", 3)
    cx = resolution((1, 1, 1), o, H)
    cx.differentials[2][0][1] = {k: -c for k, c in cx.differentials[2][0][1].items()}
    assert not verify_complex(cx)


def test_multiplicity_free_guard():
    rs, o, H = setup("G", 2)
    with pytest.raises(NotMultiplicityFreeError):
        resolution((2, 1), o, H)


def test_top_degree_bound():
    rs, o, H = setup("A", 4)
    alpha = (1, 1, 1, 1)
    cx = resolution(alpha, o, H)
    assert max(cx.terms) == sum(alpha) - 1
    assert all(cx.terms[d] for d in cx.terms)


def test_crossing_uniqueness_assertion():
    # every differential entry is a single tau monomial with +-1 coefficient
    rs, o, H = setup("D", 4)
    cx = resolution((1, 1, 1, 1), o, H)
    for d, mat in cx.differentials.items():
        for row in mat:
            for e in row:
                assert len(e) <= 1
                for key, c in e.items():
                    assert c in (1, -1)
                    assert not any(key[2])


def test_json_shape():
    rs, o, H = setup("A", 3)
    cx = resolution((1, 1, 1), o, H)
    doc = cx.to_json()
    assert doc["alpha"] == [1, 1, 1]
    assert doc["terms"][0] == {"d": 0, "summands": [{"shift": 0, "word": "123"}]}
    assert doc["differentials"][0]["from"] == 1


@pytest.mark.parametrize("fam,rank", [("A", 4), ("D", 4), ("D", 5)])
def test_sweep_small(fam, rank):
    rs, o, H = setup(fam, rank)
    pbw = PBWCharacters(o)
    count = 0
    for alpha in rs.positive_roots:
        if any(c > 1 for c in alpha):
            continue
        cx = resolution(alpha, o, H)
        assert verify_complex(cx)
        assert euler_matches(cx, o, pbw, 10)
        count += 1
    assert count >= len([b for b in rs.positive_roots if all(c <= 1 for c in b)])


def test_e6_multiplicity_free_sample():
    rs, o, H = setup("E", 6)
    pbw = PBWCharacters(o)
    free = [b for b in rs.positive_roots if all(c <= 1 for c in b)]
    assert max(sum(b) for b in free) == 6
    picks = sorted(free, key=sum)[-3:] + sorted(free, key=sum)[:2]
    for alpha in picks:
        cx = resolution(alpha, o, H)
        assert verify_complex(cx)
        assert euler_matches(cx, o, pbw, 8)


def test_zero_signs_summand_is_base_word():
    from klrchar.kostant import root_word
    from klrchar.resolutions import summand_data

    for fam, rank in [("A", 4), ("D", 5)]:
        rs, o, _H = setup(fam, rank)
        for alpha in rs.positive_roots:
            if any(c > 1 for c in alpha):
                continue
            data = summand_data(alpha, o)
            zero = (0,) * (sum(alpha) - 1)
            word, shift = data[zero]
            assert shift == 0
            assert word == root_word(alpha, o)


@pytest.mark.parametrize("fam,rank", [("A", 4), ("D", 4), ("D", 5), ("E", 6),
                                      ("B", 3), ("C", 3), ("F", 4), ("G", 2)])
def test_exact_euler_matches_series_oracle(fam, rank):
    rs, o, H = setup(fam, rank)
    pbw = PBWCharacters(o)
    for alpha in multiplicity_free(rs):
        cx = resolution(alpha, o, H)
        got = euler_character(cx, o)
        assert sh_eq(got, oracle_euler_series(cx, rs)), alpha
        assert sh_eq(got, expected_euler(alpha, o, pbw)), alpha


@pytest.mark.parametrize("fam,rank", [("B", 3), ("C", 3), ("F", 4), ("G", 2)])
def test_expected_euler_is_r_alpha_times_the_divisor_quotient(fam, rank):
    # types where d_alpha varies with alpha: dropping the factor of d_alpha
    # from D agrees with dividing D by S_alpha
    rs, o, _ = setup(fam, rank)
    pbw = PBWCharacters(o)
    for alpha in multiplicity_free(rs):
        scale = projective_divisor(alpha, rs).exact_div(standard_divisor((alpha,), rs))
        want = sh_scale(pbw.dual_root(alpha), scale)
        assert sh_eq(expected_euler(alpha, o, pbw), want), alpha


def _altered(cx, terms):
    return ChainComplex(cx.alpha, terms, cx.differentials, cx.engine)


def test_shifted_summand_detected():
    rs, o, H = setup("D", 4)
    pbw = PBWCharacters(o)
    cx = resolution((1, 1, 1, 1), o, H)
    assert euler_matches(cx, o, pbw)
    for d in cx.terms:
        for k, (shift, word) in enumerate(cx.terms[d]):
            terms = {e: list(s) for e, s in cx.terms.items()}
            terms[d][k] = (shift + 1, word)
            assert not euler_matches(_altered(cx, terms), o, pbw), (d, word)


def test_dropped_summand_detected():
    rs, o, H = setup("D", 4)
    pbw = PBWCharacters(o)
    cx = resolution((1, 1, 1, 1), o, H)
    for d in cx.terms:
        for k in range(len(cx.terms[d])):
            terms = {e: list(s) for e, s in cx.terms.items()}
            del terms[d][k]
            assert not euler_matches(_altered(cx, terms), o, pbw), (d, k)


@pytest.mark.parametrize("rank,count", [(7, 34), (8, 44)])
def test_e7_e8_full_sweep(rank, count):
    rs, o, H = setup("E", rank)
    pbw = PBWCharacters(o)
    roots = multiplicity_free(rs)
    assert len(roots) == count
    for alpha in roots:
        cx = resolution(alpha, o, H)
        assert verify_complex(cx), alpha
        assert euler_matches(cx, o, pbw), alpha

