import random
from itertools import permutations, product

import pytest

from klrchar.cartan import CartanType, RootSystem
from klrchar.klr import (KLR, MAX_STRANDS, add_into, add_scaled, apply_perm_word,
                         canon_word, perm_id, perm_len, perm_of_word,
                         swap_values)


def elem_add(a, b):
    """a + b as a new element, the operands left alone."""
    out = dict(a)
    for k, c in b.items():
        add_into(out, k, c)
    return out


def elem_scale(a, c):
    """c * a as a new element."""
    return {k: v * c for k, v in a.items()} if c else {}


def perm_inv(a):
    """The inverse permutation: position k of the value v is inv[v] = k."""
    out = [0] * len(a)
    for k, v in enumerate(a):
        out[v] = k
    return tuple(out)


@pytest.fixture(scope="module")
def a2():
    return KLR(RootSystem(CartanType("A", 2)))


def test_perm_helpers():
    w = perm_of_word((0, 1), 3)
    assert w == (1, 2, 0)
    assert canon_word(w) == bytes((0, 1))
    assert tuple(w[k] for k in perm_inv(w)) == perm_id(3)
    assert perm_len(w) == 2
    assert apply_perm_word(w, (7, 8, 9)) == (9, 7, 8)


def test_swap_values_is_left_multiplication():
    for n in range(2, 6):
        for k in range(n - 1):
            s = perm_of_word((k,), n)
            for w in permutations(range(n)):
                assert swap_values(w, k) == tuple(s[v] for v in w)


def test_canon_word_is_reduced_and_correct():
    rng = random.Random(4)
    for n in (3, 4, 5, 6):
        for _ in range(30):
            w = list(range(n))
            rng.shuffle(w)
            w = tuple(w)
            c = canon_word(w)
            assert len(c) == perm_len(w)
            assert perm_of_word(c, n) == w
            # smallest-left-descent property: first letter is minimal
            if c:
                inv = perm_inv(w)
                descents = [k for k in range(n - 1) if inv[k] > inv[k + 1]]
                assert c[0] == min(descents)


def lex_least_reduced_word(w, memo):
    """Brute force: every reduced word starts with a left descent."""
    if w not in memo:
        inv = perm_inv(w)
        descents = [k for k in range(len(w) - 1) if inv[k] > inv[k + 1]]
        memo[w] = min(((k,) + lex_least_reduced_word(swap_values(w, k), memo)
                       for k in descents), default=())
    return memo[w]


def test_canon_word_is_lex_least_reduced_word():
    memo = {}
    for n in range(1, 7):
        for w in permutations(range(n)):
            assert canon_word(w) == bytes(lex_least_reduced_word(w, memo)), w


def restart_at_zero_canon_word(w):
    """The scan that restarts at 0 after every extracted descent."""
    out, n = [], len(w)
    pos = [0] * n
    for k, v in enumerate(w):
        pos[v] = k
    while True:
        d = next((k for k in range(n - 1) if pos[k] > pos[k + 1]), -1)
        if d < 0:
            return tuple(out)
        out.append(d)
        pos[d], pos[d + 1] = pos[d + 1], pos[d]


def test_canon_word_matches_restart_at_zero_scan():
    rng = random.Random(11)
    for _ in range(2000):
        w = list(range(rng.randint(10, 20)))
        rng.shuffle(w)
        w = tuple(w)
        assert canon_word(w) == bytes(restart_at_zero_canon_word(w)), w


# words with repeated letters, so that descents meet tau_k^2 = 0 and
# braid moves meet correction terms
STRAIGHTENING_CASES = [
    ("A", 3, [(1, 2, 1, 3, 2), (2, 2, 1, 3, 1), (3, 3, 3, 2, 2)]),
    ("B", 2, [(1, 2, 1, 2, 1), (2, 2, 1, 1, 2)]),
    ("G", 2, [(1, 2, 1, 1, 2), (2, 1, 2, 1, 1)])]


@pytest.mark.parametrize("fam,rank,words", STRAIGHTENING_CASES)
def test_ascent_products_match_word_to_normal(fam, rank, words):
    # tau_times_perm answers an ascent whose word (k,) + canon(w) is
    # canonical without straightening it; word_to_normal straightens it
    H = KLR(RootSystem(CartanType(fam, rank)))
    for n in range(2, 6):
        for w in permutations(range(n)):
            for k in range(n - 1):
                if w.index(k) > w.index(k + 1):
                    continue
                for word in words:
                    i = word[:n]
                    want = H.word_to_normal(bytes((k,)) + canon_word(w), swap_values(w, k), i)
                    assert H.tau_times_perm(k, w, i) == want, (k, w, i)


@pytest.mark.parametrize("fam,rank,words", STRAIGHTENING_CASES)
def test_straightened_products_belong_to_the_caller(fam, rank, words):
    # the engine keeps no product memo: a caller may change a product in
    # place, and neither a repeated call nor a later descent, which pops the
    # lead of its ascent product, sees the change
    rs = RootSystem(CartanType(fam, rank))
    H = KLR(rs)
    for n in range(2, 6):
        for w in permutations(range(n)):
            for k in range(n - 1):
                for word in words:
                    i = word[:n]
                    want = KLR(rs).tau_times_perm(k, w, i)
                    got = H.tau_times_perm(k, w, i)
                    assert got == want, (k, w, i)
                    for key in got:
                        got[key] *= 3
                    got[(i, w, (1,) * n)] = 1
                    assert H.tau_times_perm(k, w, i) == want, (k, w, i)


def test_canon_word_refuses_more_strands_than_its_limit():
    assert canon_word(perm_id(MAX_STRANDS)) == b""
    assert canon_word(tuple(range(MAX_STRANDS - 1, -1, -1)))[:3] == bytes((0, 1, 0))
    with pytest.raises(ValueError, match=f"^a permutation of {MAX_STRANDS + 1} strands "
                                         f"is over the limit of {MAX_STRANDS} strands"):
        canon_word(perm_id(MAX_STRANDS + 1))


def test_quadratic_relation_cases(a2):
    H = a2
    assert H.lmul_tau(0, H.lmul_tau(0, H.idempotent((1, 1)))) == {}
    got = H.lmul_tau(0, H.lmul_tau(0, H.idempotent((1, 2))))
    want = elem_add(H.monomial((1, 2), (0, 1), (1, 0)),
                    H.monomial((1, 2), (0, 1), (0, 1), coeff=-1))
    assert got == want


def test_mixed_relation(a2):
    H = a2
    e = H.idempotent((1, 1))
    got = H.lmul_tau(0, H.lmul_x(1, e))
    want = elem_add(H.monomial((1, 1), (1, 0), (1, 0)), e)
    assert got == want


def test_braid_correction(a2):
    H = a2
    e = H.idempotent((1, 2, 1))
    lhs = H.apply_tau_word((1, 0, 1), e)
    rhs = H.apply_tau_word((0, 1, 0), e)
    assert elem_add(lhs, elem_scale(rhs, -1)) == H.idempotent((1, 2, 1))


def test_add_scaled_shifts_scales_and_cancels_in_place(a2):
    H = a2
    elem = elem_add(H.monomial((1, 2), (1, 0), (0, 1)),
                    H.monomial((1, 2), perm_id(2), (2, 0), coeff=-3))
    frozen = dict(elem)
    out = H.monomial((1, 2), (1, 0), (1, 1), coeff=-2)
    assert add_scaled(out, elem, 2, (1, 0)) is out
    assert out == H.monomial((1, 2), perm_id(2), (3, 0), coeff=-6)
    assert elem == frozen
    # an all-zero shift, or none, adds elem scaled; c = 0 adds nothing
    for exps in (None, (0, 0), [0, 0]):
        assert add_scaled({}, elem, -1, exps) == elem_scale(elem, -1)
    assert add_scaled(dict(elem), elem, 0, (1, 1)) == elem
    assert add_scaled(dict(elem), elem, -1) == {}


def test_idempotent_mismatch_is_zero(a2):
    H = a2
    assert H.lmul_e((2, 1), H.monomial((1, 2), perm_id(2))) == {}


def test_transpose_examples(a2):
    H = a2
    e = H.idempotent((1, 2))
    assert H.transpose(e) == e
    m = H.monomial((1, 2), (1, 0))
    assert H.transpose(m) == H.monomial((2, 1), (1, 0))
    mx = H.monomial((1, 1), (1, 0), (1, 0))
    want = elem_add(H.monomial((1, 1), (1, 0), (0, 1)),
                    H.monomial((1, 1), perm_id(2), coeff=-1))
    assert H.transpose(mx) == want


def test_transpose_involution_and_antihom():
    rng = random.Random(9)
    H = KLR(RootSystem(CartanType("B", 2)))
    for _ in range(25):
        n = 3
        word = tuple(rng.randint(1, 2) for _ in range(n))
        seq1 = [rng.randrange(n - 1) for _ in range(rng.randint(1, 3))]
        seq2 = [rng.randrange(n - 1) for _ in range(rng.randint(1, 3))]
        a = H.apply_tau_word(seq1, H.idempotent(word))
        if rng.random() < 0.5:
            a = H.lmul_x(rng.randrange(n), a)
        left = None
        for key, c in a.items():
            i, w, _ = key
            lw = apply_perm_word(w, i)
            left = lw
        if not a or left is None:
            continue
        b = H.apply_tau_word(seq2, H.idempotent(left))
        b = {k: c for k, c in b.items()}
        if not b:
            continue
        assert H.transpose(H.transpose(a)) == a
        prod = H.multiply(b, a)
        assert H.transpose(prod) == H.multiply(H.transpose(a), H.transpose(b))


def test_nilhecke_idempotents():
    H = KLR(RootSystem(CartanType("A", 1)))
    for m in (1, 2, 3, 4):
        em = H.nilhecke_idempotent(1, m)
        assert H.multiply(em, em) == em
    e2 = H.nilhecke_idempotent(1, 2)
    assert e2 == H.monomial((1, 1), (1, 0), (0, 1))
    assert all(H.degree(k) == 0 for k in H.nilhecke_idempotent(1, 3))


def test_degree_preserved_by_normal_form():
    rng = random.Random(31)
    for fam, rank in [("A", 2), ("G", 2), ("B", 2)]:
        H = KLR(RootSystem(CartanType(fam, rank)))
        for _ in range(40):
            n = rng.randint(2, 4)
            word = tuple(rng.randint(1, rank) for _ in range(n))
            elem = H.idempotent(word)
            for _ in range(rng.randint(1, 5)):
                k = rng.randrange(n - 1)
                elem = H.lmul_tau(k, elem)
                if not elem:
                    break
            if elem:
                assert len({H.degree(key) for key in elem}) == 1


def test_associativity_random_triples():
    rng = random.Random(13)
    for fam, rank in [("A", 3), ("G", 2)]:
        H = KLR(RootSystem(CartanType(fam, rank)))
        for _ in range(20):
            n = rng.randint(2, 4)
            word = tuple(rng.randint(1, rank) for _ in range(n))

            def rand_elem(right_word):
                e = H.idempotent(right_word)
                for _ in range(rng.randint(0, 3)):
                    if rng.random() < 0.3:
                        e = H.lmul_x(rng.randrange(n), e)
                    else:
                        e = H.lmul_tau(rng.randrange(n - 1), e)
                    if not e:
                        return e
                return e

            c = rand_elem(word)
            if not c:
                continue
            lw_c = {apply_perm_word(w, i) for (i, w, _x) in c}
            b = rand_elem(next(iter(lw_c)))
            if not b:
                continue
            lw_b = {apply_perm_word(w, i) for (i, w, _x) in b}
            a = rand_elem(next(iter(lw_b)))
            if not a:
                continue
            assert H.multiply(H.multiply(a, b), c) == \
                H.multiply(a, H.multiply(b, c))


def test_word_order_independence():
    # normal form independent of the order generators are multiplied in
    H = KLR(RootSystem(CartanType("A", 2)))
    e = H.idempotent((1, 2, 1, 2))
    w1 = H.apply_tau_word((0, 2, 1), e)
    w2 = H.apply_tau_word((2, 0, 1), e)
    assert w1 == w2


def test_eps_convention_guard():
    rs = RootSystem(CartanType("A", 2))
    with pytest.raises(ValueError):
        KLR(rs, {(1, 2): 1, (2, 1): 1})


@pytest.mark.parametrize("fam,rank", [("A", 3), ("D", 4), ("G", 2)])
def test_partial_eps_completed_like_full(fam, rank):
    # each edge given as (i, j) only, (j, i) only, both or neither, either sign;
    # a missing direction takes minus the given one, a missing edge +1 for i < j
    rs = RootSystem(CartanType(fam, rank))
    edges = [(i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)
             if rs.cartan[i - 1][j - 1] < 0]
    default = KLR(rs).eps
    assert default == {(i, j): 1 for i, j in edges} | {(j, i): -1 for i, j in edges}
    for choice in product(product(("ij", "ji", "both", "none"), (1, -1)),
                          repeat=len(edges)):
        partial, full = {}, dict(default)
        for (i, j), (given, s) in zip(edges, choice):
            if given == "none":
                continue
            full[(i, j)], full[(j, i)] = s, -s
            for a, b in ([(i, j)] if given == "ij" else [(j, i)] if given == "ji"
                         else [(i, j), (j, i)]):
                partial[(a, b)] = full[(a, b)]
        kept = dict(partial)
        assert KLR(rs, partial).eps == KLR(rs, full).eps == full
        assert partial == kept


# -- relation terms against {position: exponent} maps -------------------------

def quad_map(H, k, j):
    """tau_k^2 1_j as [(coeff, {position: exponent})]."""
    a, b = j[k], j[k + 1]
    if a == b:
        return []
    c_ab = H.cartan[a - 1][b - 1]
    if c_ab < 0:
        e = H.eps[(a, b)]
        return [(e, {k: -c_ab}), (-e, {k + 1: -H.cartan[b - 1][a - 1]})]
    return [(1, {})]


def braid_map(H, k, j):
    a, b = j[k], j[k + 1]
    if j[k + 2] != a or H.cartan[a - 1][b - 1] >= 0:
        return []
    c_ab = H.cartan[a - 1][b - 1]
    return [(H.eps[(a, b)], {k: r, k + 2: -1 - c_ab - r}) for r in range(-c_ab)]


def as_vectors(terms, n):
    out = []
    for c, em in terms:
        exps = [0] * n
        for p, e in em.items():
            exps[p] += e
        out.append((c, tuple(exps)))
    return out


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                      ("E", 6), ("F", 4), ("G", 2)])
def test_relation_terms_are_exponent_vectors(fam, rank):
    rs = RootSystem(CartanType(fam, rank))
    # a non-default sign on the first edge, so eps enters both lists
    for H in (KLR(rs), KLR(rs, {(2, 1): 1})):
        for n in range(2, 5):
            for word in product(range(1, rank + 1), repeat=n):
                for k in range(n - 1):
                    assert H.quad_terms(k, word) == as_vectors(quad_map(H, k, word), n)
                for k in range(n - 2):
                    assert H.braid_terms(k, word) == as_vectors(braid_map(H, k, word), n)
