import random
from itertools import permutations

import pytest

from klrchar.cartan import CartanType, RootSystem
from klrchar.convex import (NotReducedError, good_lyndon_words, is_convex,
                            lyndon_order, minimal_pairs, mp_choice,
                            order_from_reduced_word, random_reduced_word,
                            reduced_words_of_w0)
from klrchar.kostant import root_word


def rs_of(fam, rank):
    return RootSystem(CartanType(fam, rank))


def test_a2_word_order():
    rs = rs_of("A", 2)
    o = order_from_reduced_word((1, 2, 1), rs)
    assert o.roots == ((1, 0), (1, 1), (0, 1))
    assert is_convex(o)


def test_ar_lex_word():
    # (s_1...s_r)(s_1...s_{r-1})...s_1 gives the segment-lexicographic order
    r = 4
    rs = rs_of("A", r)
    word = []
    for top in range(r, 0, -1):
        word.extend(range(1, top + 1))
    o = order_from_reduced_word(tuple(word), rs)
    segs = sorted(
        ((i, j) for i in range(1, r + 1) for j in range(i, r + 1)))
    expected = []
    for i, j in segs:
        expected.append(tuple(1 if i <= t + 1 <= j else 0 for t in range(r)))
    assert list(o.roots) == expected
    assert o.roots == lyndon_order(rs).roots


def test_not_reduced_rejected():
    rs = rs_of("A", 2)
    with pytest.raises(NotReducedError):
        order_from_reduced_word((1, 1, 2), rs)
    with pytest.raises(NotReducedError):
        order_from_reduced_word((1, 2), rs)


def test_g2_two_orderings():
    rs = rs_of("G", 2)
    orders = {order_from_reduced_word(w, rs).roots
              for w in reduced_words_of_w0(rs)}
    assert len(orders) == 2


def test_is_convex_negative():
    rs = rs_of("A", 2)
    assert not is_convex([(1, 1), (1, 0), (0, 1)], rs)


def test_a3_convex_orders_are_word_orders():
    rs = rs_of("A", 3)
    words = list(reduced_words_of_w0(rs))
    assert len(words) == 16
    word_orders = {order_from_reduced_word(w, rs).roots for w in words}
    convex = {p for p in permutations(rs.positive_roots) if is_convex(list(p), rs)}
    assert convex == word_orders


def test_random_reduced_words_convex():
    rng = random.Random(3)
    for fam, rank in [("B", 3), ("D", 4), ("F", 4)]:
        rs = rs_of(fam, rank)
        for _ in range(15):
            w = random_reduced_word(rs, rng)
            assert is_convex(order_from_reduced_word(w, rs))


def test_lyndon_a_series_segments():
    rs = rs_of("A", 5)
    words = good_lyndon_words(rs)
    for i in range(1, 6):
        for j in range(i, 6):
            root = tuple(1 if i <= t + 1 <= j else 0 for t in range(5))
            assert words[root] == tuple(range(i, j + 1))


def test_lyndon_e6_highest_root():
    rs = rs_of("E", 6)
    words = good_lyndon_words(rs)
    highest = max(rs.positive_roots, key=sum)
    assert "".join(map(str, words[highest])) == "12364534236"


def test_lyndon_e8_costandard_pair():
    rs = rs_of("E", 8)
    o = lyndon_order(rs)
    highest = max(rs.positive_roots, key=sum)
    beta, gamma = mp_choice(highest, o)
    words = good_lyndon_words(rs)
    assert "".join(map(str, words[gamma])) == "1234586756453423"
    assert "".join(map(str, words[beta])) == "1234586756458"


@pytest.mark.parametrize("fam,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4),
                                      ("E", 6), ("F", 4), ("G", 2)])
def test_lyndon_order_is_convex(fam, rank):
    assert is_convex(lyndon_order(rs_of(fam, rank)))


def test_minimal_pairs_a2():
    rs = rs_of("A", 2)
    o = lyndon_order(rs)
    assert minimal_pairs((1, 1), o) == [((0, 1), (1, 0))]


def test_minimal_pairs_a3():
    rs = rs_of("A", 3)
    o = lyndon_order(rs)
    got = set(minimal_pairs((1, 1, 1), o))
    a23, a1 = (0, 1, 1), (1, 0, 0)
    a3, a12 = (0, 0, 1), (1, 1, 0)
    assert got == {(a23, a1), (a3, a12)}
    # gamma maximal picks (a3, a12) since a12 comes after a1
    assert mp_choice((1, 1, 1), o) == (a3, a12)


def test_minimal_pairs_g2():
    rs = rs_of("G", 2)
    o = lyndon_order(rs)
    assert minimal_pairs((3, 1), o) == [((2, 1), (1, 0))]


def test_height_two_unique_pair():
    rs = rs_of("B", 3)
    o = lyndon_order(rs)
    for alpha in rs.positive_roots:
        if sum(alpha) == 2:
            assert len(minimal_pairs(alpha, o)) == 1
            assert mp_choice(alpha, o) in minimal_pairs(alpha, o)


def test_mp_choice_is_minimal():
    for fam, rank in [("A", 3), ("B", 3), ("G", 2), ("D", 4)]:
        rs = rs_of(fam, rank)
        o = lyndon_order(rs)
        for alpha in rs.positive_roots:
            if sum(alpha) >= 2:
                assert mp_choice(alpha, o) in minimal_pairs(alpha, o)


@pytest.mark.parametrize("fam,rank", [("A", 4), ("D", 4), ("E", 6)])
def test_lyndon_word_equals_mp_word(fam, rank):
    # the good Lyndon word coincides with the word from the mp recursion
    rs = rs_of(fam, rank)
    o = lyndon_order(rs)
    words = good_lyndon_words(rs)
    for alpha in rs.positive_roots:
        assert root_word(alpha, o) == words[alpha]


def test_no_root_sums_outside_window():
    # Lemma-style check: no nontrivial multiset of roots <= alpha sums to a
    # multiset of roots >= alpha, other than copies of alpha itself
    from itertools import combinations_with_replacement

    for fam, rank in [("A", 3), ("G", 2)]:
        rs = rs_of(fam, rank)
        o = lyndon_order(rs)
        for alpha in rs.positive_roots:
            lo = [b for b in rs.positive_roots if o.rank_of[b] <= o.rank_of[alpha]]
            hi = [b for b in rs.positive_roots if o.rank_of[b] >= o.rank_of[alpha]]
            for k in range(1, 3):
                for lows in combinations_with_replacement(lo, k):
                    s = tuple(sum(c) for c in zip(*lows))
                    for l in range(1, 3):
                        for highs in combinations_with_replacement(hi, l):
                            t = tuple(sum(c) for c in zip(*highs))
                            if s == t:
                                assert set(lows) == {alpha} and set(highs) == {alpha}


# the scans mp_choice and minimal_pairs made before reading
# RootSystem.decompositions: every positive root beta, gamma = alpha - beta
def scan_pairs(alpha, order):
    rs = order.rs
    pairs = []
    for beta in rs.positive_roots:
        gamma = tuple(alpha[k] - beta[k] for k in range(rs.rank))
        if gamma in rs.positive_set and order.precedes(gamma, beta):
            pairs.append((beta, gamma))
    return pairs


def scan_minimal_pairs(alpha, order):
    pairs = scan_pairs(alpha, order)
    out = [(beta, gamma) for beta, gamma in pairs
           if not any(order.precedes(b2, beta) and order.precedes(gamma, g2)
                      for b2, g2 in pairs if (b2, g2) != (beta, gamma))]
    return sorted(out, key=lambda p: order.rank_of[p[0]])


def scan_mp_choice(alpha, order):
    best = None
    for beta, gamma in scan_pairs(alpha, order):
        if best is None or order.precedes(best[1], gamma):
            best = (beta, gamma)
    return best


@pytest.mark.parametrize("fam,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4),
                                      ("E", 6), ("F", 4), ("G", 2)])
def test_pairs_match_the_full_scan(fam, rank):
    rs = rs_of(fam, rank)
    rng = random.Random(1000 * rank + ord(fam))
    orders = [lyndon_order(rs)] + [
        order_from_reduced_word(random_reduced_word(rs, rng), rs) for _ in range(3)]
    for o in orders:
        for alpha in rs.positive_roots[rs.rank:]:
            assert minimal_pairs(alpha, o) == scan_minimal_pairs(alpha, o)
            assert mp_choice(alpha, o) == scan_mp_choice(alpha, o)


# -- the Weyl-group step against the reflection construction ------------------

def reflection_order(word, rs):
    """Roots s_{i_1}...s_{i_{k-1}}(alpha_{i_k}), each reflected back letter by
    letter; None unless they are distinct positive roots."""
    roots, seen = [], set()
    for k, i in enumerate(word):
        b = rs.simple_root(i - 1)
        for j in reversed(word[:k]):
            b = rs.reflect(j - 1, b)
        if b not in rs.positive_set or b in seen:
            return None
        seen.add(b)
        roots.append(b)
    return tuple(roots)


def ascent_walk(rs, rng):
    """A random reduced word of w0, each root tracked by reflections."""
    n = rs.rank
    P = [rs.simple_root(j) for j in range(n)]
    word = []
    for _ in range(len(rs.positive_roots)):
        i = rng.choice([i for i in range(n) if all(c >= 0 for c in P[i])])
        P = [tuple(P[j][k] - rs.cartan[i][j] * P[i][k] for k in range(n))
             for j in range(n)]
        word.append(i + 1)
    return tuple(word)


STEP_TYPES = [("A", r) for r in range(2, 9)] + [("B", 2), ("B", 3), ("B", 4), ("C", 3),
              ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3)])
def test_every_reduced_word_matches_reflections(fam, rank):
    rs = rs_of(fam, rank)
    words = list(reduced_words_of_w0(rs))
    assert len(words) == {"A": 16, "B": 42}[fam]
    for w in words:
        assert order_from_reduced_word(w, rs).roots == reflection_order(w, rs)


@pytest.mark.parametrize("fam,rank", STEP_TYPES)
def test_random_words_match_reflections(fam, rank):
    rs = rs_of(fam, rank)
    rng = random.Random(7919 * rank + ord(fam))
    for _ in range(200):
        w = random_reduced_word(rs, rng)
        assert order_from_reduced_word(w, rs).roots == reflection_order(w, rs)


@pytest.mark.parametrize("fam,rank", STEP_TYPES)
def test_letters_outside_the_nodes_and_repeats_refused(fam, rank):
    rs = rs_of(fam, rank)
    w = random_reduced_word(rs, random.Random(rank))
    k = len(w) // 2
    for bad in (0, rank + 1):
        with pytest.raises(NotReducedError, match=f"letter {bad} "):
            order_from_reduced_word(w[:k] + (bad,) + w[k + 1:], rs)
    # s_i s_i at positions k-1, k
    repeat = w[:k] + (w[k - 1],) + w[k + 1:]
    assert reflection_order(repeat, rs) is None
    with pytest.raises(NotReducedError, match="not a reduced expression"):
        order_from_reduced_word(repeat, rs)


@pytest.mark.parametrize("fam,rank,count", [("F", 4, 200), ("E", 8, 5)])
def test_seeded_words_unchanged(fam, rank, count):
    # F4 with 200 words per seed are the pbw-orders benchmark inputs
    rs = rs_of(fam, rank)
    for seed in range(1, 6):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(count):
            assert random_reduced_word(rs, new) == ascent_walk(rs, old)
