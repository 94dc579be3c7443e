"""Proper standard modules, their contravariant form, and Gram matrices.

A module element is kept in the standard basis: minimal coset representative
times a tuple of cuspidal basis words, one per part.  Generators act through
the straightening engine; every straightened monomial is pushed back into
the standard basis by factorizing through the parabolic, letting the block
part act on the cuspidal tensor, and killing polynomial generators (they act
as zero on homogeneous cuspidal representations).

The form is computed by the projection recipe: apply the transposed
generator word, read off the coefficient of the distinguished block
involution x, and permute tensor slots by y.  The form is symmetric, so a
Gram matrix on one slice pairs each unordered pair of basis vectors once
and mirrors the value.  Each module keeps the image
of every generator on every basis vector it has met, for its whole life,
so Gram matrices and actions on one module straighten each image once.
"""

from __future__ import annotations

from .cartan import Root, RootSystem
from .convex import ConvexOrder, Word, good_lyndon_words
from .klr import (KLR, Perm, add_into, add_scaled, apply_perm_word, canon_word,
                  perm_id, perm_len, perm_of_word)
from .kostant import check_kp, kp_scalars
from .pbw import PBWCharacters


class NotHomogeneousError(ValueError):
    pass


class UnsupportedPartitionError(ValueError):
    pass


class HomogRep:
    """Cuspidal module spanned by one swap-class of words, x acting as zero."""

    def __init__(self, rs: RootSystem, base_word: Word):
        self.rs = rs
        self.base = tuple(base_word)
        self.words = self._swap_class(self.base)
        for w in self.words:
            for t in range(len(w) - 1):
                if w[t] == w[t + 1]:
                    raise NotHomogeneousError(f"{base_word}: repeated letter in {w}")
            for t in range(len(w) - 2):
                if w[t] == w[t + 2]:
                    raise NotHomogeneousError(f"{base_word}: distance-2 repeat in {w}")

    def _swap_class(self, base: Word) -> frozenset[Word]:
        seen = {base}
        frontier = [base]
        while frontier:
            nxt = []
            for w in frontier:
                for t in range(len(w) - 1):
                    w2 = self.tau(t, w)
                    if w2 is not None and w2 not in seen:
                        seen.add(w2)
                        nxt.append(w2)
            frontier = nxt
        return frozenset(seen)

    def tau(self, t: int, word: Word) -> Word | None:
        """Action of the t-th crossing (0-based, local): swap or zero."""
        a, b = word[t], word[t + 1]
        if a != b and self.rs.cartan[a - 1][b - 1] == 0:
            return word[:t] + (b, a) + word[t + 2:]
        return None

    def prefixes(self) -> frozenset[Word]:
        out = set()
        for w in self.words:
            for t in range(len(w) + 1):
                out.add(w[:t])
        return frozenset(out)


class ProperStandard:
    """The induced module attached to a Kostant partition, standard basis."""

    def __init__(self, engine: KLR, order: ConvexOrder, lam: tuple[Root, ...],
                 pbw: PBWCharacters | None = None):
        self.engine = engine
        self.rs = engine.rs
        self.order = order
        self.lam = tuple(tuple(b) for b in lam)
        check_kp(self.lam, order)
        lwords = good_lyndon_words(self.rs)
        try:
            self.reps = [HomogRep(self.rs, lwords[b]) for b in self.lam]
        except NotHomogeneousError as e:
            raise UnsupportedPartitionError(
                f"a cuspidal factor is not homogeneous: {e}") from e
        tab = pbw if pbw is not None else PBWCharacters(order)
        for b, rep in zip(self.lam, self.reps):
            got = {w: c.c for w, c in tab.dual_root(b).items()}
            if got != {w: {0: 1} for w in rep.words}:
                raise UnsupportedPartitionError(
                    f"cuspidal module for {b} is not homogeneous under this ordering"
                )
        self.sizes = [sum(b) for b in self.lam]
        self.n = sum(self.sizes)
        self.offsets = []
        off = 0
        for s in self.sizes:
            self.offsets.append(off)
            off += s
        self.s_shift = kp_scalars(self.lam, order)[1]
        self.y = self._build_y()
        self.x = self._build_x()
        # (k, basis vector) -> image of tau_k, kept for the module's life
        self._images: dict = {}

    # -- block combinatorics -------------------------------------------------

    def _build_y(self) -> Perm:
        l = len(self.lam)
        y = list(range(l))
        t = 0
        while t < l:
            u = t
            while u + 1 < l and self.lam[u + 1] == self.lam[t]:
                u += 1
            for s in range(t, u + 1):
                y[s] = u - (s - t)
            t = u + 1
        return tuple(y)

    def _build_x(self) -> Perm:
        x = [0] * self.n
        for t in range(len(self.lam)):
            for s in range(self.sizes[t]):
                x[self.offsets[t] + s] = self.offsets[self.y[t]] + s
        return tuple(x)

    def block_factorize(self, u: Perm) -> tuple[Perm, dict[int, tuple[int, ...]]]:
        """u = u1 * u2 with u1 increasing on blocks and u2 block-preserving.

        Returns u1 and, for each block t that u2 moves, the canonical word of
        u2 on that block in local positions.
        """
        u1 = list(u)
        local = {}
        for t, off in enumerate(self.offsets):
            end = off + self.sizes[t]
            block = u1[off:end]
            srt = sorted(block)
            if block != srt:
                u1[off:end] = srt
                local[t] = canon_word(tuple(map(srt.index, block)))
        return tuple(u1), local

    # -- elements --------------------------------------------------------------

    def cyclic(self):
        return {(perm_id(self.n), tuple(r.base for r in self.reps)): 1}

    def concat(self, words) -> Word:
        out: tuple[int, ...] = ()
        for w in words:
            out += w
        return out

    def basis_degree(self, u: Perm, words) -> int:
        key = (self.concat(words), u, self.engine.zeros(self.n))
        return self.engine.degree(key) + self.s_shift

    # -- reduction to the standard basis ---------------------------------------

    def _reduce(self, todo: list, out: dict) -> dict:
        """Add each term (coeff, exps, u, words) of the work list todo, that is
        coeff x^exps tau_u (x) words, into out in the standard basis; return out."""
        while todo:
            coeff, exps, u, words = todo.pop()
            u1, local = self.block_factorize(u)
            jword = self.concat(words)
            if local:
                # tau_{u1} tau_{u2} = tau_u + lower terms, and tau_{u2} acts on the tensor;
                # rw, canon(u1) then the blocks' local words, is a reduced word of u
                rw = canon_word(u1)
                w2 = list(words)
                for t, cw in local.items():
                    rw += bytes(self.offsets[t] + c for c in cw)
                    for c in reversed(cw):
                        if w2[t] is not None:
                            w2[t] = self.reps[t].tau(c, w2[t])
                E = self.engine.word_to_normal(rw, u, jword)
                if E.pop((jword, u, self.engine.zeros(self.n)), None) != 1:
                    raise AssertionError("coset rewriting lost its leading term")
                if None not in w2:
                    todo.append((coeff, exps, u1, tuple(w2)))
                lower = [(-coeff, exps, E)]
            elif any(exps):
                # push the leftmost x factor through the crossings; survivors die
                p = next(t for t, e in enumerate(exps) if e)
                exps2 = list(exps)
                exps2[p] -= 1
                exps2 = tuple(exps2)
                cw = canon_word(u)
                pos = p
                lower = []
                for idx, c in enumerate(cw):
                    if pos == c or pos == c + 1:
                        # a suffix of a canonical word is canonical, so its tau
                        # product on 1_jword is the monomial of its permutation v
                        v = perm_of_word(cw[idx + 1:], self.n)
                        jrest = apply_perm_word(v, jword)
                        if jrest[c] == jrest[c + 1]:
                            sub = self.engine.apply_tau_word(
                                cw[:idx], self.engine.monomial(jword, v))
                            lower.append((-coeff if pos == c else coeff, exps2, sub))
                        pos = c + 1 if pos == c else c
            else:
                add_into(out, (u, words), coeff)
                continue
            todo += [(sign * c, tuple(x + y for x, y in zip(shift, b)), wv, words)
                     for sign, shift, elem in lower
                     for (_, wv, b), c in elem.items()]
        return out

    # -- action -----------------------------------------------------------------

    def act_tau(self, k: int, vec: dict) -> dict:
        out: dict = {}
        for basis_vec, c in vec.items():
            add_scaled(out, self._tau_image(k, basis_vec), c)
        return out

    def _tau_image(self, k: int, basis_vec) -> dict:
        """tau_k on one standard basis vector, in the standard basis.

        The image is looked up in, or stored into, the module's table, so
        every Gram matrix and action straightens it once; _reduce is linear
        in the coefficients, so an image is stored for coefficient 1 and
        scaled by act_tau.
        """
        hit = self._images.get((k, basis_vec))
        if hit is not None:
            return hit
        u, words = basis_vec
        E = self.engine.tau_times_perm(k, u, self.concat(words))
        image = self._reduce([(c, b, wv, words) for (_, wv, b), c in E.items()], {})
        self._images[(k, basis_vec)] = image
        return image

    def act_x(self, p: int, vec: dict) -> dict:
        exps = list(self.engine.zeros(self.n))
        exps[p] += 1
        exps = tuple(exps)
        return self._reduce([(c, exps, u, words) for (u, words), c in vec.items()], {})

    def act_word(self, taus, vec: dict) -> dict:
        """Apply tau generators right-to-left (0-based positions)."""
        return self.act_transposed_word(tuple(taus)[::-1], vec)

    def act_transposed_word(self, taus, vec: dict) -> dict:
        """Apply the transpose of the given tau word."""
        for k in tuple(taus):
            vec = self.act_tau(k, vec)
            if not vec:
                return {}
        return vec

    # -- slices and the form ------------------------------------------------------

    def slice_basis(self, word: Word, degree: int | None = None):
        """Standard basis vectors in a word space, optionally one degree slice.

        Parses the word as an interleaving of cuspidal class words, block by
        block, which enumerates exactly the minimal coset representatives.
        """
        word = tuple(word)
        if len(word) != self.n:
            return []
        prefix_sets = [rep.prefixes() for rep in self.reps]
        results = []

        def rec(pos, partial, assigned):
            if pos == self.n:
                if all(partial[t] in self.reps[t].words for t in range(len(self.lam))):
                    results.append((tuple(partial), [list(a) for a in assigned]))
                return
            letter = word[pos]
            for t in range(len(self.lam)):
                cand = partial[t] + (letter,)
                if cand in prefix_sets[t]:
                    partial[t] = cand
                    assigned[t].append(pos)
                    rec(pos + 1, partial, assigned)
                    assigned[t].pop()
                    partial[t] = cand[:-1]

        rec(0, [()] * len(self.lam), [[] for _ in self.lam])
        basis = []
        for words, assigned in results:
            u1 = [0] * self.n
            for t, positions in enumerate(assigned):
                for s, target in enumerate(positions):
                    u1[self.offsets[t] + s] = target
            u1 = tuple(u1)
            if degree is None or self.basis_degree(u1, words) == degree:
                basis.append((u1, words))
        basis.sort(key=lambda bw: (perm_len(bw[0]), bw[0], bw[1]))
        return basis

    def pair_cyclicward(self, vec: dict, words_rhs) -> int:
        """<vec, 1 (x) v_{words_rhs}> by the projection recipe."""
        total = 0
        for (u, words), c in vec.items():
            if u != self.x:
                continue
            if all(words[self.y[t]] == words_rhs[t] for t in range(len(self.lam))):
                total += c
        return total

    def pair_basis(self, left, right) -> int:
        """Contravariant pairing of two standard basis vectors."""
        u2, w2 = right
        vec = {tuple(left): 1}
        vec = self.act_transposed_word(canon_word(u2), vec)
        return self.pair_cyclicward(vec, w2)

    def gram_matrix(self, word: Word, degree: int = 0):
        """The form between the degree and -degree slices of a word space.

        At degree 0 both are one slice and the symmetric form pairs each
        unordered pair once: the later vector's transposed word acts on the
        earlier one, and the value fills both entries.
        """
        rows = self.slice_basis(word, degree)
        if degree:
            cols = self.slice_basis(word, -degree)
            return [[self.pair_basis(r, c) for c in cols] for r in rows]
        G = [[0] * len(rows) for _ in rows]
        for a, r in enumerate(rows):
            for b in range(a, len(rows)):
                G[a][b] = G[b][a] = self.pair_basis(r, rows[b])
        return G


# Miller-Rabin with the first 13 primes as bases decides primality of every
# p below this bound (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 1 < p < MR_BOUND."""
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_characteristic(p: int) -> int:
    """p itself when it is 0 or a prime; raises ValueError otherwise."""
    if p >= MR_BOUND:
        raise ValueError(f"rank_over decides primality only below {MR_BOUND}, not {p}")
    if p and (p < 2 or not _is_prime(p)):
        raise ValueError(f"rank_over needs p = 0 or a prime, not {p}")
    return p


def rank_over(matrix, p: int = 0) -> int:
    """Rank over Q (p = 0) or over F_p (p prime), by fraction-free elimination.

    Each row R below the pivot row P, pivot column c, becomes
    P[c] R - R[c] P, reduced mod p over F_p.  Over Q the entries stay
    integers: each new row is divided by the previous pivot (Bareiss), a
    division that is exact, as every entry is then a minor of the matrix.
    """
    check_characteristic(p)
    rows = [[a % p for a in r] if p else list(r) for r in matrix]
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        P = rows[rank]
        a = P[col]
        for r in range(rank + 1, len(rows)):
            R = rows[r]
            b = R[col]
            if p:
                rows[r] = [(a * x - b * y) % p for x, y in zip(R, P)]
            else:
                rows[r] = [(a * x - b * y) // prev for x, y in zip(R, P)]
        prev = a
        rank += 1
    return rank
