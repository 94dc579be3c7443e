"""Koszul-style projective resolutions of root modules, multiplicity-free case.

Summands are indexed by sign vectors sigma in {0,1}^(n-1); the word and
degree shift of each summand follow the minimal-pair recursion, and the
differential entry between vectors differing in one slot is (up to sign) the
unique crossing monomial matching the two words.  Right multiplication on
row vectors is the differential convention throughout.

The Euler characteristic sum_d (-1)^d sum q^shift Ch(H 1_w) is compared with
Ch Delta(alpha) exactly.  Every summand word has weight alpha, so both sides
are numerators over the one divisor D = prod_i (1 - q^{2 d_i})^{alpha_i}: the
complex's side is one letter-shuffle fold over its summands, the standard
side is r*_alpha times D / (1 - q^{2 d_alpha}).
"""

from __future__ import annotations

from .cartan import Root
from .convex import ConvexOrder, Word, mp_choice
from .klr import KLR, Element, add_into, klr_to_json
from .laurent import LaurentPoly
from .pbw import PBWCharacters, divisor, projective_factors, standard_factors
from .shuffle import ShuffleElement, render_word, sh_eq, sh_scale, shuffle_letters


class NotMultiplicityFreeError(ValueError):
    pass


def summand_data(alpha: Root, order: ConvexOrder) -> dict[tuple, tuple[Word, int]]:
    """(word, shift) for each sign vector, by the minimal-pair recursion."""
    rs = order.rs
    n = sum(alpha)
    if n == 1:
        return {(): ((alpha.index(1) + 1,), 0)}
    beta, gamma = mp_choice(alpha, order)
    m = sum(gamma)
    bg = rs.form(beta, gamma)
    sub_g = summand_data(gamma, order)
    sub_b = summand_data(beta, order)
    out = {}
    for sg, (wg, dg) in sub_g.items():
        for sb, (wb, db) in sub_b.items():
            for mid in (0, 1):
                sigma = sg + (mid,) + sb
                if mid == 0:
                    out[sigma] = (wg + wb, dg + db)
                else:
                    out[sigma] = (wb + wg, dg + db - bg)
    return out


class ChainComplex:
    """Summands by homological degree plus differential matrices."""

    def __init__(self, alpha: Root, terms, differentials, engine: KLR):
        self.alpha = alpha
        self.terms = terms            # d -> list of (shift, word)
        self.differentials = differentials  # d -> matrix of Elements, P_d -> P_{d-1}
        self.engine = engine

    def to_json(self) -> dict:
        terms = [
            {"d": d, "summands": [{"shift": s, "word": render_word(w)}
                                  for s, w in self.terms[d]]}
            for d in sorted(self.terms)
        ]
        diffs = [
            {"from": d, "matrix": [[klr_to_json(e) for e in row]
                                   for row in self.differentials[d]]}
            for d in sorted(self.differentials)
        ]
        return {"alpha": list(self.alpha), "terms": terms, "differentials": diffs}


def resolution(alpha: Root, order: ConvexOrder, engine: KLR | None = None) -> ChainComplex:
    rs = order.rs
    alpha = tuple(alpha)
    if any(c > 1 for c in alpha):
        raise NotMultiplicityFreeError(f"{alpha} is not multiplicity-free")
    if engine is None:
        engine = KLR(rs)
    n = sum(alpha)
    data = summand_data(alpha, order)
    by_d: dict[int, list[tuple]] = {}
    for sigma, (word, shift) in data.items():
        by_d.setdefault(sum(sigma), []).append(sigma)
    sig_key = lambda s: sum(c << t for t, c in enumerate(s))
    for d in by_d:
        by_d[d].sort(key=sig_key)
    terms = {d: [(data[s][1], data[s][0]) for s in by_d[d]] for d in by_d}
    diffs: dict[int, list[list[Element]]] = {}
    for d in sorted(by_d):
        if d == 0:
            continue
        rows = by_d[d]
        cols = by_d[d - 1]
        matrix = []
        for sigma in rows:
            row = []
            for rho in cols:
                row.append(_diff_entry(sigma, rho, data, engine))
            matrix.append(row)
        diffs[d] = matrix
    return ChainComplex(alpha, terms, diffs, engine)


def _diff_entry(sigma, rho, data, engine: KLR) -> Element:
    delta = [t for t in range(len(sigma)) if sigma[t] != rho[t]]
    if len(delta) != 1:
        return {}
    r = delta[0]
    sign = -1 if sum(sigma[:r]) % 2 else 1
    wi, _ = data[sigma]
    wr, _ = data[rho]
    # unique w with w(word_rho) = word_sigma
    pos_in_sigma = {letter: t for t, letter in enumerate(wi)}
    w = tuple(pos_in_sigma[letter] for letter in wr)
    return engine.monomial(wr, w, coeff=sign)


def verify_complex(cx: ChainComplex) -> bool:
    """All consecutive differential products straighten to zero."""
    engine = cx.engine
    ds = sorted(cx.differentials)
    for d in ds:
        if d - 1 not in cx.differentials:
            continue
        A = cx.differentials[d]
        B = cx.differentials[d - 1]
        for i in range(len(A)):
            for j in range(len(B[0])):
                total: Element = {}
                for k in range(len(B)):
                    for key, c in engine.multiply(A[i][k], B[k][j]).items():
                        add_into(total, key, c)
                if total:
                    return False
    return True


def euler_character(cx: ChainComplex, order: ConvexOrder) -> ShuffleElement:
    """Numerator over D of the alternating sum of summand characters."""
    terms: dict[Word, LaurentPoly] = {}
    for d, summands in cx.terms.items():
        sign = -1 if d % 2 else 1
        for shift, word in summands:
            terms[word] = terms.get(word, LaurentPoly.zero()) + LaurentPoly.term(sign, shift)
    return shuffle_letters(terms, order.rs)


def expected_euler(alpha: Root, order: ConvexOrder, pbw: PBWCharacters) -> ShuffleElement:
    """Numerator over D of Ch Delta(alpha): r*_alpha D / (1 - q^{2 d_alpha})."""
    alpha = tuple(alpha)
    rs = order.rs
    # d_alpha is some d_i of alpha's support, as a root has the length of
    # a simple root in its support, so the quotient drops one factor
    scale = divisor(projective_factors(alpha, rs) - standard_factors((alpha,), rs))
    return sh_scale(pbw.dual_root(alpha), scale)


def euler_matches(cx: ChainComplex, order: ConvexOrder, pbw: PBWCharacters,
                  trunc: int | None = None) -> bool:
    """Euler characteristic equals Ch Delta(alpha), as an exact identity.

    The comparison is exact, so it holds at every truncation; `trunc` is
    accepted and ignored.
    """
    return sh_eq(euler_character(cx, order), expected_euler(cx.alpha, order, pbw))
