import math
import random
from itertools import permutations, product
from types import SimpleNamespace

import pytest

from klrchar.cartan import CartanType, RootSystem
from klrchar.convex import lyndon_order, order_from_reduced_word, random_reduced_word
from klrchar.klr import KLR, apply_perm_word, canon_word, perm_of_word
from klrchar.kostant import kostant_partitions
from klrchar.laurent import LaurentPoly
from klrchar.modules import (MR_BOUND, HomogRep, NotHomogeneousError,
                             ProperStandard, UnsupportedPartitionError,
                             check_characteristic, rank_over)
from klrchar.pbw import PBWCharacters


def setup_module_env(fam, rank):
    rs = RootSystem(CartanType(fam, rank))
    o = lyndon_order(rs)
    return rs, o, KLR(rs), PBWCharacters(o)


def test_homog_rep_segment():
    rs = RootSystem(CartanType("A", 3))
    rep = HomogRep(rs, (1, 2, 3))
    assert rep.words == frozenset({(1, 2, 3)})
    assert rep.tau(0, (1, 2, 3)) is None


def test_homog_rep_d4():
    rs = RootSystem(CartanType("D", 4))
    # nodes 3 and 4 are not adjacent: the class of 1234 has swaps
    rep = HomogRep(rs, (1, 2, 3, 4))
    assert (1, 2, 4, 3) in rep.words


def test_homog_rep_rejects_repeats():
    rs = RootSystem(CartanType("A", 2))
    with pytest.raises(NotHomogeneousError):
        HomogRep(rs, (1, 1))
    with pytest.raises(NotHomogeneousError):
        HomogRep(rs, (1, 2, 1))


def test_a2_module_action():
    rs, o, H, pbw = setup_module_env("A", 2)
    M = ProperStandard(H, o, ((0, 1), (1, 0)), pbw)
    v0 = M.cyclic()
    assert [M.basis_degree(u, w) for u, w in v0] == [0]
    v1 = M.act_tau(0, v0)
    assert v1 == {((1, 0), ((2,), (1,))): 1}
    assert M.act_tau(0, v1) == {}
    # x acts as zero on the cyclic vector
    assert M.act_x(0, v0) == {}
    assert M.act_x(1, v0) == {}


def test_a2_gram():
    rs, o, H, pbw = setup_module_env("A", 2)
    M = ProperStandard(H, o, ((0, 1), (1, 0)), pbw)
    assert M.gram_matrix((2, 1), 0) == [[1]]
    # the crossed vector pairs to zero with itself: degree forces it
    basis = M.slice_basis((1, 2))
    assert len(basis) == 1
    assert M.pair_basis(basis[0], basis[0]) == 0


def test_descending_requirement():
    rs, o, H, pbw = setup_module_env("A", 2)
    with pytest.raises(ValueError):
        ProperStandard(H, o, ((1, 0), (0, 1)), pbw)


def test_slice_dims_match_character():
    # word-space dimensions of the induced module match the shuffle character
    for fam, rank, lams in [
        ("A", 2, [((0, 1), (1, 0)), ((1, 1), (1, 0))]),
        ("A", 3, [((0, 1, 1), (1, 0, 0)), ((0, 0, 1), (1, 1, 0))]),
    ]:
        rs, o, H, pbw = setup_module_env(fam, rank)
        for lam in lams:
            M = ProperStandard(H, o, lam, pbw)
            ch = pbw.proper_standard(lam)
            for word, coeff in ch.items():
                basis = M.slice_basis(word)
                degs = {}
                for u, ws in basis:
                    d = M.basis_degree(u, ws)
                    degs[d] = degs.get(d, 0) + 1
                assert degs == coeff.c, (lam, word)


# (family, rank, largest height of a weight) swept by the symmetry test
SYMMETRY_SWEEP = [("A", 3, 4), ("A", 4, 4), ("B", 3, 4), ("C", 3, 4), ("D", 4, 4),
                  ("G", 2, 6)]


def symmetry_sweep_modules():
    """Each supported Kostant partition of each weight up to the height, as a
    module with its character, under the Lyndon order and a seeded random
    one, with the default and seeded random signs."""
    for fam, rank, height in SYMMETRY_SWEEP:
        rs = RootSystem(CartanType(fam, rank))
        rng = random.Random(7)
        edges = [(i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)
                 if rs.cartan[i - 1][j - 1] < 0]
        weights = [a for a in product(range(4), repeat=rank) if 2 <= sum(a) <= height]
        for o in (lyndon_order(rs),
                  order_from_reduced_word(random_reduced_word(rs, rng), rs)):
            pbw = PBWCharacters(o)
            for eps in (None, {e: rng.choice((1, -1)) for e in edges}):
                H = KLR(rs, eps)
                for alpha in weights:
                    for lam in kostant_partitions(alpha, o):
                        try:
                            M = ProperStandard(H, o, lam, pbw)
                        except UnsupportedPartitionError:
                            continue
                        yield M, pbw.proper_standard(lam)


def test_gram_symmetric_small():
    # gram_matrix pairs each unordered pair of a degree-0 slice once and
    # mirrors it, so the symmetry it relies on is checked through
    # pair_basis in both orders
    pairs = transposes = 0
    for M, ch in symmetry_sweep_modules():
        for word in ch:
            for d in (0, 2, -2):
                rows, cols = M.slice_basis(word, d), M.slice_basis(word, -d)
                for r in rows:
                    for c in cols:
                        assert M.pair_basis(r, c) == M.pair_basis(c, r), \
                            (M.rs.cartan_type, M.order.roots, M.engine.eps, M.lam, r, c)
                        pairs += 1
                if d and rows and cols:
                    G = M.gram_matrix(word, d)
                    assert M.gram_matrix(word, -d) == [list(t) for t in zip(*G)]
                    transposes += 1
    assert pairs > 5000 and transposes > 1000, (pairs, transposes)


def test_off_degree_gram_is_not_mirrored():
    # at degree != 0 the rows and columns are two slices, so even a square
    # matrix between them need not be symmetric: here it is a 3-cycle
    rs, o, H, pbw = setup_module_env("A", 3)
    M = ProperStandard(H, o, ((0, 0, 1),) * 3 + ((0, 1, 0),) * 2, pbw)
    word = (3, 3, 3, 2, 2)
    rows, cols = M.slice_basis(word, 2), M.slice_basis(word, -2)
    G = M.gram_matrix(word, 2)
    assert G == [[M.pair_basis(r, c) for c in cols] for r in rows]
    assert G == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert M.gram_matrix(word, -2) == [list(t) for t in zip(*G)]


def test_equal_parts_x_and_y():
    rs, o, H, pbw = setup_module_env("A", 1)
    M = ProperStandard(H, o, ((1,), (1,)), pbw)
    assert M.y == (1, 0)
    assert M.x == (1, 0)
    # cyclic vector has degree s = 1, crossing drops to -1
    v0 = M.cyclic()
    assert M.basis_degree(*next(iter(v0))) == 1
    v1 = M.act_tau(0, v0)
    assert M.basis_degree(*next(iter(v1))) == -1
    # <v0, tau v0> = 1 under the +1 normalization
    assert M.pair_basis(next(iter(v0)), next(iter(v1))) == 1
    assert M.pair_basis(next(iter(v0)), next(iter(v0))) == 0


def test_gram_rank_matches_simple_character():
    # the radical of the degree-0 form: rank equals the q^0 coefficient of
    # the dual canonical character when the length-two property applies
    from klrchar.canonical import CanonicalTable

    rs, o, H, pbw = setup_module_env("A", 2)
    table = CanonicalTable(o, pbw)
    lam = ((0, 1), (1, 0))
    M = ProperStandard(H, o, lam, pbw)
    for word in pbw.proper_standard(lam):
        G = M.gram_matrix(word, 0)
        want = table.char(lam).get(word, LaurentPoly.zero()).c.get(0, 0)
        assert rank_over(G, 0) == want


def test_rank_over():
    M = [[0, 1, 1, 1, 1], [1, 0, 0, 0, 1], [1, 0, 0, 0, 1],
         [1, 0, 0, 0, 1], [1, 1, 1, 1, 0]]
    assert rank_over(M, 0) == 3
    assert rank_over(M, 2) == 2
    assert rank_over(M, 3) == 3
    assert rank_over([], 0) == 0
    assert rank_over([[0, 0], [0, 0]], 0) == 0
    assert rank_over([[2]], 2) == 0
    assert rank_over([[2]], 0) == 1


@pytest.mark.parametrize("p", [1, 4, 9, -3, 91])
def test_rank_over_needs_a_characteristic(p):
    # Z/p is no field unless p is prime; an empty matrix is refused too
    for matrix in ([[1, 2], [3, 4]], []):
        with pytest.raises(ValueError, match=f"not {p}$"):
            rank_over(matrix, p)


def test_characteristic_matches_trial_division():
    for p in range(-3, 10 ** 4):
        prime = p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
        if p == 0 or prime:
            assert check_characteristic(p) == p
        else:
            with pytest.raises(ValueError, match=f"not {p}$"):
                check_characteristic(p)


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1])
def test_characteristic_large_primes(p):
    assert check_characteristic(p) == p


@pytest.mark.parametrize("p", [561, 3215031751, 2 ** 61 + 1])
def test_characteristic_rejects_pseudoprimes(p):
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to 2, 3, 5 and 7
    with pytest.raises(ValueError, match=f"not {p}$"):
        check_characteristic(p)


@pytest.mark.parametrize("p", [MR_BOUND, 2 ** 89 - 1])
def test_characteristic_refuses_above_bound(p):
    # MR_BOUND itself is a strong pseudoprime to every base; 2^89 - 1 is prime
    with pytest.raises(ValueError, match=f"below {MR_BOUND}"):
        check_characteristic(p)


def fraction_free_rank(matrix, p):
    """Rank by cross-multiplying rows; over F_p every entry is reduced mod p."""
    rows = [[a % p if p else a for a in r] for r in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        a = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            b = rows[r][col]
            rows[r] = [a * x - b * y for x, y in zip(rows[r], rows[rank])]
            if p:
                rows[r] = [x % p for x in rows[r]]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_rank_over_matches_fraction_free(p):
    rng = random.Random(100 + p)
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        # low-rank products and small entries, so ranks drop often
        k = rng.randint(0, min(n, m))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
        M = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(m)]
             for i in range(n)]
        assert rank_over(M, p) == fraction_free_rank(M, p), (M, p)


def test_unsupported_partition_rejected():
    from klrchar.modules import UnsupportedPartitionError

    rs, o, H, pbw = setup_module_env("G", 2)
    with pytest.raises((UnsupportedPartitionError, NotHomogeneousError)):
        ProperStandard(H, o, ((3, 1),), pbw)


def test_gram_rank_matches_simple_character_a3():
    # two-part minimal pairs: the simple character is the dual canonical one
    from klrchar.canonical import CanonicalTable
    from klrchar.convex import minimal_pairs

    rs, o, H, pbw = setup_module_env("A", 3)
    table = CanonicalTable(o, pbw)
    for alpha in rs.positive_roots:
        if sum(alpha) < 2:
            continue
        for lam in minimal_pairs(alpha, o):
            M = ProperStandard(H, o, lam, pbw)
            ch = table.char(lam)
            for word in pbw.proper_standard(lam):
                G = M.gram_matrix(word, 0)
                want = ch.get(word, LaurentPoly.zero()).c.get(0, 0)
                assert rank_over(G, 0) == want, (lam, word)


def test_empty_slice_gram():
    rs, o, H, pbw = setup_module_env("A", 2)
    M = ProperStandard(H, o, ((0, 1), (1, 0)), pbw)
    assert M.slice_basis((1, 1)) == []
    assert M.gram_matrix((1, 1), 0) == []


def test_pairing_vanishes_across_words_and_degrees():
    rs, o, H, pbw = setup_module_env("A", 3)
    lam = ((0, 1, 1), (1, 0, 0))
    M = ProperStandard(H, o, lam, pbw)
    ch = pbw.proper_standard(lam)
    vectors = []
    for word in ch:
        for b in M.slice_basis(word):
            vectors.append((word, M.basis_degree(*b), b))
    for w1, d1, b1 in vectors:
        for w2, d2, b2 in vectors:
            if w1 != w2 or d1 + d2 != 0:
                assert M.pair_basis(b1, b2) == 0, (w1, d1, w2, d2)


def test_term_budget_guard(monkeypatch):
    from klrchar import klr
    from klrchar.klr import ResourceBudgetError

    monkeypatch.setattr(klr, "TERM_BUDGET", 1)
    rs = RootSystem(CartanType("A", 2))
    H = KLR(rs)
    with pytest.raises(ResourceBudgetError):
        H.lmul_tau(0, H.lmul_x(1, H.idempotent((1, 1))))


def test_module_defining_relations():
    # the induced-module action satisfies every relation as operators
    cases = [
        ("A", 1, ((1,), (1,))),
        ("A", 2, ((0, 1), (1, 0))),
        ("A", 2, ((1, 1), (1, 1))),
        ("A", 3, ((0, 1, 1), (1, 1, 0))),
        # D4's cuspidal word 1243 commutes to 1234: the block action swaps
        ("D", 4, ((1, 1, 1, 1),)),
        ("D", 4, ((0, 1, 1, 1), (1, 0, 0, 0))),
    ]
    for fam, rank, lam in cases:
        rs, o, H, pbw = setup_module_env(fam, rank)
        M = ProperStandard(H, o, lam, pbw)
        n = M.n
        # a small spanning set: everything reachable from the cyclic vector
        vectors = [M.cyclic()]
        seen = {tuple(sorted(vectors[0].items()))}
        frontier = list(vectors)
        while frontier and len(vectors) < 12:
            v = frontier.pop()
            for k in range(n - 1):
                w = M.act_tau(k, v)
                key = tuple(sorted(w.items()))
                if w and key not in seen:
                    seen.add(key)
                    vectors.append(w)
                    frontier.append(w)

        def add(a, b, s=1):
            out = dict(a)
            for k, c in b.items():
                out[k] = out.get(k, 0) + s * c
                if not out[k]:
                    del out[k]
            return out

        for v in vectors:
            words = {apply_perm_word(u, M.concat(ws)) for u, ws in v}
            if len(words) != 1:
                continue
            word = words.pop()
            for k in range(n - 1):
                # quadratic
                got = M.act_tau(k, M.act_tau(k, v))
                want: dict = {}
                for c, em in H.quad_terms(k, word):
                    t = v
                    for p, e in enumerate(em):
                        for _ in range(e):
                            t = M.act_x(p, t)
                    want = add(want, t, c)
                assert got == want, (fam, lam, "quad", k)
                # mixed relation tau_k x_{k+1} - x_k tau_k = delta
                lhs = M.act_tau(k, M.act_x(k + 1, v))
                rhs = M.act_x(k, M.act_tau(k, v))
                diff = add(lhs, rhs, -1)
                expect = v if word[k] == word[k + 1] else {}
                assert diff == expect, (fam, lam, "mixed", k)
            for k in range(n - 2):
                lhs = M.act_word((k + 1, k, k + 1), v)
                rhs = M.act_word((k, k + 1, k), v)
                diff = add(lhs, rhs, -1)
                want = {}
                for c, em in H.braid_terms(k, word):
                    t = v
                    for p, e in enumerate(em):
                        for _ in range(e):
                            t = M.act_x(p, t)
                    want = add(want, t, c)
                assert diff == want, (fam, lam, "braid", k)


def test_equal_parts_slice_dims():
    rs, o, H, pbw = setup_module_env("A", 2)
    lam = ((1, 1), (1, 1))
    M = ProperStandard(H, o, lam, pbw)
    ch = pbw.proper_standard(lam)
    for word, coeff in ch.items():
        degs = {}
        for u, ws in M.slice_basis(word):
            d = M.basis_degree(u, ws)
            degs[d] = degs.get(d, 0) + 1
        assert degs == coeff.c, word


def test_a1_squared_pairing_nondegenerate():
    rs, o, H, pbw = setup_module_env("A", 1)
    M = ProperStandard(H, o, ((1,), (1,)), pbw)
    plus = M.slice_basis((1, 1), 1)
    minus = M.slice_basis((1, 1), -1)
    assert len(plus) == 1 and len(minus) == 1
    assert abs(M.pair_basis(plus[0], minus[0])) == 1


def test_willcex_rank_in_standard_basis():
    # basis-independent cross-check of the characteristic-2 rank drop
    from klrchar import verify

    M = verify.willcex_module()
    G = M.gram_matrix(verify.WILLCEX_WORD, 0)
    assert len(G) == 5
    assert rank_over(G, 0) == 3
    assert rank_over(G, 2) == 2


def commutation_class(word, rs):
    """Every word reached from word by swapping adjacent commuting letters."""
    seen, frontier = {word}, [word]
    while frontier:
        w = frontier.pop()
        for t in range(len(w) - 1):
            a, b = w[t], w[t + 1]
            if a != b and rs.cartan[a - 1][b - 1] == 0:
                w2 = w[:t] + (b, a) + w[t + 2:]
                if w2 not in seen:
                    seen.add(w2)
                    frontier.append(w2)
    return sorted(seen)


def entrywise_gram(M, word, degree):
    """The Gram matrix with each entry straightened whole by the engine.

    <left, (u2, w2)> applies the transpose of tau_{u2} to tau_{u1} 1_j in
    one apply_tau_word on the induced word j, then reduces every term of
    the normal form to the standard basis once, where gram_matrix acts one
    generator at a time through the module's image table.
    """
    rows = M.slice_basis(word, degree)
    cols = rows if degree == 0 else M.slice_basis(word, -degree)

    def pair(left, right):
        (u1, words), (u2, w2) = left, right
        jword = M.concat(words)
        # act_transposed_word applies canon_word(u2) left to right
        E = M.engine.apply_tau_word(canon_word(u2)[::-1], M.engine.monomial(jword, u1))
        vec: dict = {}
        for (_, w, exps), c in E.items():
            M._reduce_term(c, exps, w, words, vec)
        return M.pair_cyclicward(vec, w2)

    return [[pair(r, c) for c in cols] for r in rows]


def fresh_module(M):
    """The module M on a new engine: it shares no table with M."""
    return ProperStandard(KLR(M.rs, M.engine.eps), M.order, M.lam)


def test_gram_matrix_matches_entrywise_pairing():
    # a module keeps its generator images across calls, so every matrix
    # after the first reads images that earlier ones stored; the entrywise
    # oracle straightens each entry whole on a fresh module's engine and
    # stores no image
    from klrchar import verify

    M = verify.willcex_module()
    word = verify.WILLCEX_WORD
    others = [w for w in commutation_class(word, M.rs) if w != word]
    rs, o, H, pbw = setup_module_env("A", 2)
    equal_parts = ProperStandard(H, o, ((1, 1), (1, 1)), pbw)
    cases = [(M, word, 0), (M, word, 2), (M, word, -2)]
    cases += [(M, w, 0) for w in random.Random(5).sample(others, 3)]
    cases += [(equal_parts, (1, 1, 2, 2), 2), (equal_parts, (1, 1, 2, 2), -2)]
    for module, w, d in cases:
        G = module.gram_matrix(w, d)
        fresh = fresh_module(module)
        assert G and G == entrywise_gram(fresh, w, d), (w, d)
        assert not fresh._images
        # a repeated call reads every image from the table and stores none
        size = len(module._images)
        assert module.gram_matrix(w, d) == G
        assert len(module._images) == size


# -- the block factorization against the sort-based one ------------------------

def sorted_coset_factorize(offsets, sizes, u):
    """u = u1 * u2 by sorting each block's values with a key function."""
    u1, u2 = list(u), list(range(len(u)))
    for off, size in zip(offsets, sizes):
        vals = sorted(range(size), key=lambda s: u[off + s])
        for s in range(size):
            u1[off + s] = u[off + vals[s]]
            u2[off + vals[s]] = off + s
    return tuple(u1), tuple(u2)


def sorted_block_word(offsets, sizes, u2):
    out = []
    for off, size in zip(offsets, sizes):
        out.extend(off + c for c in canon_word(tuple(u2[off + s] - off for s in range(size))))
    return tuple(out)


def blocks(sizes):
    offsets = [sum(sizes[:t]) for t in range(len(sizes))]
    return SimpleNamespace(sizes=list(sizes), offsets=offsets)


# the block sizes of the modules above, and longer ones of the same shape
BLOCK_SIZES = [(1,), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 1, 1), (3,),
               (2, 2, 1, 1), (3, 3), (2, 2, 1, 1, 1), (3, 2, 2), (7,)]


@pytest.mark.parametrize("sizes", BLOCK_SIZES)
def test_block_factorize_matches_sorting(sizes):
    M = blocks(sizes)
    n = sum(sizes)
    for u in permutations(range(n)):
        u1, local = ProperStandard.block_factorize(M, u)
        want_u1, want_u2 = sorted_coset_factorize(M.offsets, sizes, u)
        assert u1 == want_u1
        # a block u2 leaves alone has no word, and none is empty
        assert all(local.values())
        word = tuple(M.offsets[t] + c for t, cw in local.items() for c in cw)
        assert word == sorted_block_word(M.offsets, sizes, want_u2)
        assert u == tuple(u1[v] for v in perm_of_word(word, n))
