"""Straightening kernel for quiver Hecke algebras of finite type.

Elements are sparse integer combinations of basis monomials
x^k tau_w 1_i, keyed by (right idempotent word, permutation, exponent
vector).  The permutation's tau-product is taken along its canonical
reduced word (repeatedly extract the smallest left descent).  Canonical
words are bytes, one 0-based letter per byte, and so are the keys of
their module-level cache; this caps permutations at MAX_STRANDS strands.

Left multiplication by a single generator is the primitive everything else
reduces to.  Multiplying tau_k onto tau_w with k an ascent rewrites the
word (k) + canon(w) into canonical form; each braid move emits correction
terms with strictly fewer crossings, so the recursion is well founded.
Descents go through the quadratic relation.

The engine keeps no product memo: every product is built afresh and
belongs to its caller, which may change it in place.  An ascent whose word
(k) + canon(w) is canonical is the unit monomial of s_k w, found from
canon(w) alone; such ascents are most of the products a Gram matrix asks
for.  The one straightening memo is each ProperStandard's image table.

Positions are 0-based internally (tau_k crosses strands k and k+1,
0 <= k <= n-2); words are tuples of 1-based node labels.
"""

from __future__ import annotations

from .cartan import RootSystem
from .shuffle import deg_stat, render_word

Perm = tuple[int, ...]
Monomial = tuple  # (word, perm, exps)
Element = dict  # Monomial -> int

# bytes(w) -> canonical word of w, both one byte per entry
_CANON_CACHE: dict[bytes, bytes] = {}

# a permutation's entries 0..n-1 are the bytes of its cache key
MAX_STRANDS = 256


# -- permutation helpers -----------------------------------------------------

def perm_id(n: int) -> Perm:
    return tuple(range(n))


def perm_len(a: Perm) -> int:
    n = len(a)
    return sum(1 for j in range(n) for k in range(j + 1, n) if a[j] > a[k])


def swap_values(w: Perm, k: int) -> Perm:
    """Left multiplication s_k * w (swap the values k, k+1)."""
    out = list(w)
    out[w.index(k)], out[w.index(k + 1)] = k + 1, k
    return tuple(out)


def perm_of_word(seq, n: int) -> Perm:
    """Product s_{seq_1} ... s_{seq_m} as a permutation (0-based letters)."""
    w = list(range(n))
    for k in seq:
        # right multiplication by s_k swaps the entries at k, k+1
        w[k], w[k + 1] = w[k + 1], w[k]
    return tuple(w)


def canon_word(w: Perm) -> bytes:
    """Canonical reduced word: repeatedly extract the smallest left descent.

    The word is bytes, one 0-based letter per byte.
    """
    if len(w) > MAX_STRANDS:
        raise ValueError(f"a permutation of {len(w)} strands is over the limit of "
                         f"{MAX_STRANDS} strands that canonical words are kept for")
    key = bytes(w)
    hit = _CANON_CACHE.get(key)
    if hit is not None:
        return hit
    out = bytearray()
    n = len(w)
    pos = [0] * n
    for k, v in enumerate(w):
        pos[v] = k
    # extracting the descent k changes only the descents at k-1, k and k+1,
    # so the scan for the next smallest one resumes at k-1
    k = 0
    while k < n - 1:
        if pos[k] < pos[k + 1]:
            k += 1
            continue
        out.append(k)
        pos[k], pos[k + 1] = pos[k + 1], pos[k]
        if k:
            k -= 1
    res = _CANON_CACHE[key] = bytes(out)
    return res


def apply_perm_word(w: Perm, word) -> tuple:
    out = [0] * len(word)
    for k, target in enumerate(w):
        out[target] = word[k]
    return tuple(out)


def add_into(dst: Element, key: Monomial, coeff: int):
    if not coeff:
        return
    b = dst.get(key, 0) + coeff
    if b:
        dst[key] = b
    elif key in dst:
        del dst[key]


def add_scaled(out: Element, elem: Element, c: int = 1, exps=None) -> Element:
    """Add c * x^exps * elem into out, in place, and return out.

    exps (an exponent vector, or None for none) shifts every monomial of
    elem.  out must be an element the caller owns: the images a
    ProperStandard keeps are shared, so they may be read as elem but never
    accumulated into.
    """
    if exps is not None and any(exps):
        for (i, w, a), c2 in elem.items():
            add_into(out, (i, w, tuple(x + y for x, y in zip(a, exps))), c * c2)
    else:
        for key, c2 in elem.items():
            add_into(out, key, c * c2)
    return out


TERM_BUDGET = 10_000_000


class ResourceBudgetError(ValueError):
    """Straightening produced an element of more than TERM_BUDGET monomials."""


class KLR:
    """The algebra attached to one root system and sign convention.

    The weight is implicit: elements of different weights simply live in
    orthogonal word blocks and multiply to zero.
    """

    def __init__(self, rs: RootSystem, eps: dict[tuple[int, int], int] | None = None):
        self.rs = rs
        self.cartan = rs.cartan
        self.d = rs.d
        # an edge missing from eps takes minus its reverse, else +1 for i < j
        eps = dict(eps or {})
        for i in range(1, rs.rank + 1):
            for j in range(1, rs.rank + 1):
                if i != j and rs.cartan[i - 1][j - 1] < 0 and (i, j) not in eps:
                    eps[(i, j)] = -eps.get((j, i), -1 if i < j else 1)
        self.eps = eps
        for (i, j), s in eps.items():
            if eps.get((j, i), 0) * s != -1:
                raise ValueError(f"sign convention violates eps({i},{j})eps({j},{i}) = -1")
        self._zeros: dict[int, tuple] = {}

    def _guard(self, elem: Element) -> Element:
        if len(elem) > TERM_BUDGET:
            strands = len(next(iter(elem))[1])
            raise ResourceBudgetError(f"straightening in type {self.rs.cartan_type} on "
                                      f"{strands} strands built an element of {len(elem)} "
                                      f"monomials, over the budget of {TERM_BUDGET}")
        return elem

    # -- constructors --------------------------------------------------------

    def zeros(self, n: int) -> tuple:
        z = self._zeros.get(n)
        if z is None:
            z = self._zeros[n] = (0,) * n
        return z

    def idempotent(self, word) -> Element:
        return self.monomial(word, perm_id(len(word)))

    def monomial(self, word, w: Perm, exps=None, coeff: int = 1) -> Element:
        word = tuple(word)
        if exps is None:
            exps = self.zeros(len(word))
        return {(word, w, tuple(exps)): coeff} if coeff else {}

    # -- relations data ------------------------------------------------------

    def quad_terms(self, k: int, j) -> list[tuple[int, tuple]]:
        """tau_k^2 1_j as [(coeff, exponent vector)]."""
        a, b = j[k], j[k + 1]
        if a == b:
            return []
        zero = self.zeros(len(j))
        c_ab = self.cartan[a - 1][b - 1]
        if c_ab >= 0:
            return [(1, zero)]
        c_ba = self.cartan[b - 1][a - 1]
        e = self.eps[(a, b)]
        head, tail = zero[:k], zero[k + 2:]
        return [(e, head + (-c_ab, 0) + tail), (-e, head + (0, -c_ba) + tail)]

    def braid_terms(self, k: int, j) -> list[tuple[int, tuple]]:
        """(tau_{k+1}tau_k tau_{k+1} - tau_k tau_{k+1} tau_k) 1_j as
        [(coeff, exponent vector)], the exponents at positions k, k+2."""
        a, b = j[k], j[k + 1]
        if j[k + 2] != a or self.cartan[a - 1][b - 1] >= 0:
            return []
        m = -1 - self.cartan[a - 1][b - 1]
        e = self.eps[(a, b)]
        zero = self.zeros(len(j))
        head, tail = zero[:k], zero[k + 3:]
        return [(e, head + (r, 0, m - r) + tail) for r in range(m + 1)]

    # -- generator products --------------------------------------------------

    def lmul_x(self, p: int, elem: Element) -> Element:
        out: Element = {}
        for (i, w, a), c in elem.items():
            a2 = list(a)
            a2[p] += 1
            add_into(out, (i, w, tuple(a2)), c)
        return out

    def lmul_e(self, word, elem: Element) -> Element:
        word = tuple(word)
        out: Element = {}
        for key, c in elem.items():
            i, w, a = key
            if apply_perm_word(w, i) == word:
                out[key] = c
        return out

    def lmul_tau(self, k: int, elem: Element) -> Element:
        out: Element = {}
        for (i, w, a), c in elem.items():
            main = self.tau_times_perm(k, w, i)
            if any(a):
                a2 = list(a)
                a2[k], a2[k + 1] = a2[k + 1], a2[k]
                add_scaled(out, main, c, a2)
                j = apply_perm_word(w, i)
                if j[k] == j[k + 1]:
                    for coeff, exps in _demazure(a, k):
                        add_into(out, (i, w, exps), c * coeff)
            else:
                add_scaled(out, main, c)
        return self._guard(out)

    def tau_times_perm(self, k: int, w: Perm, i) -> Element:
        """Normal form of tau_k tau_w 1_i (tau_w the canonical monomial).

        The product is built afresh on each call and belongs to the caller.
        When k is an ascent of w and the smallest left descent of s_k w, the
        word (k,) + canon(w) is canonical and the product is the unit
        monomial of s_k w, found without straightening.
        """
        p, q = w.index(k), w.index(k + 1)
        v = list(w)
        v[p], v[q] = k + 1, k
        w2 = tuple(v)  # s_k w
        if p < q:
            # ascent: (k,) + canon(w) is a reduced word of s_k w.  A suffix of
            # a canonical word is canonical, so canon(s_k w) starts with k
            # exactly when it is that word.  No j < k - 1 is a left descent of
            # s_k w when none is one of w, and k - 1 is not one when k - 1
            # stands left of k + 1 in w (k + 1's place holds k in s_k w)
            cw = canon_word(w)
            if (not cw or cw[0] >= k - 1) and (k == 0 or w.index(k - 1) < q):
                return {(i, w2, self.zeros(len(w))): 1}
            return self.word_to_normal(bytes((k,)) + cw, w2, i)
        # descent: tau_k tau_w = tau_k^2 tau_{w'} - tau_k C  where
        # tau_k tau_{w'} = tau_w + C and w' = s_k w
        C = self.tau_times_perm(k, w2, i)
        if C.pop((tuple(i), w, self.zeros(len(w))), None) != 1:
            raise AssertionError("missing unit leading term in ascent product")
        out: Element = {}
        for coeff, exps in self.quad_terms(k, apply_perm_word(w2, i)):
            add_into(out, (tuple(i), w2, exps), coeff)
        if C:
            add_scaled(out, self.lmul_tau(k, C), -1)
        return self._guard(out)

    def word_to_normal(self, seq, v: Perm, i: tuple) -> Element:
        """Normal form of tau_seq 1_i, where seq is a reduced word of v."""
        cv = canon_word(v)  # names the strand limit before bytes() meets a letter over 255
        seq = bytes(seq)
        if seq == cv:
            return self.monomial(i, v)
        g = cv[0]
        tail, corr = self.front_elem(seq, g, i)
        out = self.lmul_tau(g, self.word_to_normal(tail, swap_values(v, g), i))
        return self._guard(add_scaled(out, corr))

    def front_elem(self, seq: bytes, g: int, i) -> tuple[bytes, Element]:
        """Rewrite so the word starts with g: tau_seq 1_i = tau_g tau_tail 1_i + corr.

        Requires seq reduced with g a left descent of its permutation; the
        returned (g,) + tail is again reduced and corr is in normal form
        with strictly fewer crossings.
        """
        if seq[0] == g:
            return seq[1:], {}
        h = seq[0]
        rt, c1 = self.front_elem(seq[1:], g, i)
        corr = self.lmul_tau(h, c1) if c1 else {}
        if abs(h - g) >= 2:
            return bytes((h,)) + rt, corr
        t2, c2 = self.front_elem(rt, h, i)
        if c2:
            add_scaled(corr, self.lmul_tau(h, self.lmul_tau(g, c2)))
        # braid move at the front, on the word right of the three crossings
        v2 = perm_of_word(t2, len(i))
        jj = apply_perm_word(v2, i)
        kk = min(g, h)
        terms = self.braid_terms(kk, jj)
        if terms:
            sign = 1 if h > g else -1
            base = self.word_to_normal(t2, v2, i)
            for coeff, exps in terms:
                add_scaled(corr, base, sign * coeff, exps)
        return bytes((h, g)) + t2, corr

    # -- whole-element operations ---------------------------------------------

    def apply_tau_word(self, seq, elem: Element) -> Element:
        """Left multiply by tau_{seq_1} ... tau_{seq_m} (arbitrary word)."""
        for k in reversed(tuple(seq)):
            elem = self.lmul_tau(k, elem)
            if not elem:
                return {}
        return elem

    def multiply(self, e1: Element, e2: Element) -> Element:
        out: Element = {}
        for (i1, w1, a1), c1 in e1.items():
            part = self.lmul_e(i1, e2)
            if part:
                add_scaled(out, self.apply_tau_word(canon_word(w1), part), c1, a1)
        return out

    def transpose(self, elem: Element) -> Element:
        """The anti-automorphism fixing all generators."""
        out: Element = {}
        for (i, w, a), c in elem.items():
            j = apply_perm_word(w, i)
            # tau_w transposes to its word read backwards
            add_scaled(out, self.apply_tau_word(canon_word(w)[::-1],
                                                self.monomial(j, perm_id(len(j)), a, c)))
        return out

    def degree(self, key: Monomial) -> int:
        i, w, a = key
        j = apply_perm_word(w, i)
        deg = sum(2 * self.d[j[p] - 1] * a[p] for p in range(len(a)) if a[p])
        return deg + deg_stat(w, i, self.rs)

    def nilhecke_idempotent(self, letter: int, m: int) -> Element:
        """x_2 x_3^2 ... x_m^{m-1} tau_{w0} on the word letter^m."""
        word = (letter,) * m
        w0 = tuple(range(m - 1, -1, -1))
        return self.monomial(word, w0, tuple(range(m)))


def _demazure(a, k: int) -> list[tuple[int, tuple]]:
    """(s_k x^a - x^a) / (x_k - x_{k+1}) as [(coeff, exps)]."""
    p, q = a[k], a[k + 1]
    lo, hi = min(p, q), max(p, q)
    sign = 1 if p < q else -1
    return [(sign, a[:k] + (lo + t, hi - 1 - t) + a[k + 2:]) for t in range(hi - lo)]


def klr_to_json(elem: Element) -> list[dict]:
    items = []
    for (i, w, a) in sorted(elem):
        items.append({
            "word": render_word(i),
            "perm": list(w),
            "exps": list(a),
            "coeff": elem[(i, w, a)],
        })
    return items
