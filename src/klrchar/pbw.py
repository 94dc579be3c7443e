"""Characters of dual root vectors and dual PBW monomials.

The dual root vector character for a non-simple root is produced by solving
the rank-two straightening identity: the q-commutator of the two characters
attached to the fixed minimal pair is exactly divisible by
q^{-p}(1 - q^{2(p - beta.gamma)}), and the quotient is the character.
Inexact division signals corrupted ordering data and raises.

The q-commutator comes back packed (shuffle.Packed), and the solve divides
it word by word as integers (`Packed.div_one_minus_qk`): at a width that
holds the q-commutator's bound, the integer division by 1 - 2^{Kk} leaves
no remainder exactly when 1 - q^k divides the polynomial, so the integers
alone decide exactness and give the quotient.

Dual PBW characters E*_lambda, the products of root characters along a
Kostant partition, stay packed from the first factor on, at the width of
the whole product's bound (`Packed.for_product`), and decode a word only
when it is read.

A solve reads nothing but its two input characters, so it is memoized per
root system on the identities of the two.  Every character handed out,
simple roots included, is interned per root system, so equal characters
are one object, and orderings whose minimal-pair recursions reach the same
two characters share one solve.

Projective characters come from the letter-shuffle fold, whose numerators
are packed too: the character of H 1_j is the shuffle j_1 o ... o j_n of
the letters of j over prod_k (1 - q^{2 d_{j_k}}).  The graded dimension of
H(alpha) is one fold over all words of alpha, summed and divided once, and
`dim_formula` sets it against sum_lambda Dim Delta(lambda) Dim bar-Delta(lambda)
exactly, as numerators over one common multiple of the divisors.  Every
divisor is a product of factors (1 - q^{2k}), kept as a multiset of k.
"""

from __future__ import annotations

from collections import Counter

from .cartan import Root, RootSystem, p_max
from .convex import ConvexOrder, Word, mp_choice
from .kostant import KP, kostant_partitions, kp_scalars
from .laurent import ExactDivisionError, LaurentPoly
from .shuffle import (Packed, ShuffleElement, drop_pair_memo, q_commutator, sh_dim, sh_word,
                      shuffle, shuffle_letters, word_weight, words_of_weight)


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
        rs = self.rs
        if sum(alpha) == 1:
            out = _intern(sh_word((alpha.index(1) + 1,)), rs)
        else:
            beta, gamma = mp_choice(alpha, self.order)
            # both inputs are interned in rs._root_chars, which keeps them
            # alive, so their ids name them for as long as rs._solves exists
            key = (id(self.dual_root(beta)), id(self.dual_root(gamma)))
            out = rs._solves.get(key)
            if out is None:
                out = rs._solves[key] = _intern(self._solve(alpha, beta, gamma), rs)
        self._table[alpha] = out
        return out

    def _solve(self, alpha: Root, beta: Root, gamma: Root) -> ShuffleElement:
        rs = self.rs
        cb = self.dual_root(beta)
        cg = self.dual_root(gamma)
        p = p_max(rs, beta, gamma)
        bg = rs.form(beta, gamma)
        num = q_commutator(cg, cb, -bg, rs)
        # num / (q^-p (1 - q^k)) with k = 2 (p - bg) is q^p num / (1 - q^k)
        out: ShuffleElement = {}
        for w, c in num.div_one_minus_qk(2 * (p - bg), p):
            if c is None:
                div = LaurentPoly({-p: 1}) - LaurentPoly({p - 2 * bg: 1})
                raise ExactDivisionError(
                    f"scale-factor division failed at word {w} for root {alpha} "
                    f"(order {self.order.label}): ({num[w]}) is not divisible by ({div})")
            out[w] = c
        return out

    def proper_standard(self, lam: KP) -> ShuffleElement:
        """Ch of the shifted product of cuspidal characters along lambda."""
        if not lam:
            return Packed.of(sh_word(()))
        _, s, _, _ = kp_scalars(lam, self.order)
        chars = [self.dual_root(part) for part in lam]
        # the product is bilinear, so q^s goes on the first factor alone
        out = Packed.for_product(chars, s)
        for ch in chars[1:]:
            out = shuffle(out, ch, self.rs)
        return out


def _intern(ch: ShuffleElement, rs: RootSystem) -> ShuffleElement:
    """The one stored character of rs equal to ch; ch itself if it is new.

    The characters are bucketed by the hash of their items, taken from a
    frozenset built for that one call, so no stored key copies a word and
    coefficient pair per word; within a bucket, equality decides.
    """
    bucket = rs._root_chars.setdefault(hash(frozenset(ch.items())), [])
    for other in bucket:
        if other == ch:
            return other
    bucket.append(ch)
    return ch


def divisor(ks: Counter) -> LaurentPoly:
    """prod over k in ks, with multiplicity, of (1 - q^{2k})."""
    out = LaurentPoly.one()
    for k in ks.elements():
        out = out * LaurentPoly({0: 1, 2 * k: -1})
    return out


def standard_factors(lam: KP, rs: RootSystem) -> Counter:
    """The k of S_lambda: d_beta r for each part beta and 1 <= r <= mult."""
    return Counter(rs.d_root(b) * r for b, m in Counter(lam).items()
                   for r in range(1, m + 1))


def projective_factors(weight, rs: RootSystem) -> Counter:
    """The k of the projective divisor: d_i, weight_i times."""
    return Counter(rs.d[i] for i, c in enumerate(weight) for _ in range(c))


def standard_divisor(lam: KP, rs: RootSystem) -> LaurentPoly:
    """S_lambda = prod over parts beta and 1 <= r <= mult of (1 - q_beta^{2r})."""
    return divisor(standard_factors(lam, rs))


def projective_divisor(weight, rs: RootSystem) -> LaurentPoly:
    """prod_i (1 - q^{2 d_i})^{weight_i}, shared by every word of the weight."""
    return divisor(projective_factors(weight, rs))


def dim_standard(lam: KP, pbw: PBWCharacters) -> tuple[ShuffleElement, LaurentPoly]:
    """Standard module character for lambda: (E*_lambda, S_lambda)."""
    return pbw.proper_standard(lam), standard_divisor(lam, pbw.rs)


def char_projective(j: Word, rs: RootSystem) -> tuple[ShuffleElement, LaurentPoly]:
    """Character of the left projective H 1_j: (numerator, divisor)."""
    return (shuffle_letters({tuple(j): LaurentPoly.one()}, rs),
            projective_divisor(word_weight(j, rs), rs))


def dim_H(weight, rs: RootSystem) -> tuple[LaurentPoly, LaurentPoly]:
    """Graded dimension of the whole algebra at the weight: (numerator, divisor)."""
    num = shuffle_letters({w: LaurentPoly.one() for w in words_of_weight(weight)}, rs)
    return sh_dim(num), projective_divisor(weight, rs)


def dim_formula(weight,
                pbw: PBWCharacters) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Dim H(alpha) and sum_lambda Dim Delta(lambda) Dim bar-Delta(lambda) as
    (lhs, rhs, den): numerators over one common multiple den of the
    projective divisor and every S_lambda.  The identity holds iff lhs == rhs.
    """
    rs = pbw.rs
    kps = kostant_partitions(weight, pbw.order)
    proj = projective_factors(weight, rs)
    common = proj.copy()
    for lam in kps:
        common |= standard_factors(lam, rs)
    lhs = dim_H(weight, rs)[0] * divisor(common - proj)
    rhs = LaurentPoly.zero()
    for lam in kps:
        dbar = sh_dim(pbw.proper_standard(lam))
        rhs = rhs + dbar * dbar * divisor(common - standard_factors(lam, rs))
    drop_pair_memo(rs)
    return lhs, rhs, divisor(common)
