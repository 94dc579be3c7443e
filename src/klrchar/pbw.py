"""Characters of dual root vectors and dual PBW monomials.

The dual root vector character for a non-simple root is produced by solving
the rank-two straightening identity: the q-commutator of the two characters
attached to the fixed minimal pair is exactly divisible by
q^{-p}(1 - q^{2(p - beta.gamma)}), and the quotient is the character.
Inexact division signals corrupted ordering data and raises.

Characters depend on the ordering only through the minimal-pair recursion
tree, so results are cached globally under that fingerprint and shared
between orderings.

Projective characters come from the letter-shuffle fold: the character of
H 1_j is the shuffle j_1 o ... o j_n of the single letters of j divided by
prod_k (1 - q^{2 d_{j_k}}).  The graded dimension of H(alpha) is one fold
over all words of alpha, summed and divided once, and `dim_formula` sets it
against the sum over Kostant partitions of Dim Delta(lambda) Dim bar-Delta(lambda).
"""

from __future__ import annotations

from .cartan import Root, RootSystem, p_max
from .convex import ConvexOrder, Word, mp_choice, mp_fingerprint
from .kostant import KP, kostant_partitions, kp_scalars, multiplicities
from .laurent import ExactDivisionError, LaurentPoly, PowerSeries
from .shuffle import (ShuffleElement, q_commutator, sh_dim, sh_word, shuffle,
                      shuffle_letters, word_weight, words_of_weight)

_GLOBAL_ROOT_CHAR_CACHE: dict[tuple, ShuffleElement] = {}


class PBWCharacters:
    """Memoized table of Ch r*_alpha for a fixed convex ordering."""

    def __init__(self, order: ConvexOrder):
        self.order = order
        self.rs = order.rs
        self._table: dict[Root, ShuffleElement] = {}

    def dual_root(self, alpha: Root) -> ShuffleElement:
        hit = self._table.get(alpha)
        if hit is not None:
            return hit
        if sum(alpha) == 1:
            out = sh_word((alpha.index(1) + 1,))
            self._table[alpha] = out
            return out
        fp = (self.rs.key(), mp_fingerprint(alpha, self.order))
        cached = _GLOBAL_ROOT_CHAR_CACHE.get(fp)
        if cached is not None:
            self._table[alpha] = cached
            return cached
        beta, gamma = mp_choice(alpha, self.order)
        out = self._solve(alpha, beta, gamma)
        _GLOBAL_ROOT_CHAR_CACHE[fp] = out
        self._table[alpha] = out
        return out

    def _solve(self, alpha: Root, beta: Root, gamma: Root) -> ShuffleElement:
        rs = self.rs
        cb = self.dual_root(beta)
        cg = self.dual_root(gamma)
        p = p_max(rs, beta, gamma)
        bg = rs.form(beta, gamma)
        num = q_commutator(cg, cb, -bg, rs)
        div = LaurentPoly({-p: 1}) - LaurentPoly({p - 2 * bg: 1})
        out: ShuffleElement = {}
        for w, c in num.items():
            try:
                q = c.exact_div(div)
            except ExactDivisionError as e:
                raise ExactDivisionError(
                    f"scale-factor division failed at word {w} for root {alpha} "
                    f"(order {self.order.label}): {e}"
                ) from e
            if q:
                out[w] = q
        return out

    def proper_standard(self, lam: KP) -> ShuffleElement:
        """Ch of the shifted product of cuspidal characters along lambda."""
        _, s, _, _ = kp_scalars(lam, self.order)
        out = None
        for part in lam:
            ch = self.dual_root(part)
            out = ch if out is None else shuffle(out, ch, self.rs)
        if out is None:
            out = sh_word(())
        return {w: c.shift(s) for w, c in out.items()}


def standard_divisor(lam: KP, rs: RootSystem) -> LaurentPoly:
    """prod over parts beta and 1 <= r <= mult of (1 - q_beta^{2r})."""
    out = LaurentPoly.one()
    for b, m in multiplicities(lam).items():
        db = rs.d_root(b)
        for r in range(1, m + 1):
            out = out * (LaurentPoly.one() - LaurentPoly.term(1, 2 * db * r))
    return out


def dim_standard(lam: KP, pbw: PBWCharacters, trunc: int) -> dict[Word, PowerSeries]:
    """Word-wise graded dimension series of the standard module for lambda."""
    ch = pbw.proper_standard(lam)
    div = standard_divisor(lam, pbw.rs)
    return {w: PowerSeries.from_poly(c, trunc).div_poly(div) for w, c in ch.items()}


def projective_divisor(weight, rs: RootSystem) -> LaurentPoly:
    """prod_i (1 - q^{2 d_i})^{weight_i}, shared by every word of the weight."""
    out = LaurentPoly.one()
    for i, c in enumerate(weight):
        for _ in range(c):
            out = out * (LaurentPoly.one() - LaurentPoly.term(1, 2 * rs.d[i]))
    return out


def char_projective(j: Word, rs: RootSystem, trunc: int) -> dict[Word, PowerSeries]:
    """Character of the left projective H 1_j, to the truncation."""
    div = projective_divisor(word_weight(j, rs), rs)
    return {w: PowerSeries.from_poly(c, trunc).div_poly(div)
            for w, c in shuffle_letters({tuple(j): LaurentPoly.one()}, rs).items()}


def dim_H(weight, rs: RootSystem, trunc: int) -> PowerSeries:
    """Graded dimension of the whole algebra at the given weight."""
    num = shuffle_letters({w: LaurentPoly.one() for w in words_of_weight(weight)}, rs)
    return PowerSeries.from_poly(sh_dim(num), trunc).div_poly(projective_divisor(weight, rs))


def dim_formula(weight, pbw: PBWCharacters,
                trunc: int) -> tuple[PowerSeries, PowerSeries]:
    """Both sides of Dim H(alpha) = sum_lambda Dim Delta(lambda) Dim bar-Delta(lambda)."""
    rs = pbw.rs
    lhs = dim_H(weight, rs, trunc)
    rhs = PowerSeries({}, trunc)
    for lam in kostant_partitions(weight, pbw.order):
        dbar = sh_dim(pbw.proper_standard(lam))
        # exact to trunc, as S_lambda has lowest term 1
        rhs += PowerSeries.from_poly(dbar * dbar, trunc).div_poly(standard_divisor(lam, rs))
    return lhs, rhs
