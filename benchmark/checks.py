"""Output checks, run after the timed span.

Each check returns a list of problems; an empty list means the outputs are
correct.  A check uses a property the method must have or a computation
made apart from it, never a stored copy of an earlier output.  Results of
operations that failed (``None``) are not checked: they are counted as
failed instead.
"""

from __future__ import annotations

import functools
from itertools import combinations
from math import comb


def _poly_key(ch):
    return {w: c.c for w, c in ch.items() if c}


# Full-character identities are compared after substituting q = EVAL_Q in
# Z/EVAL_P: a nonzero difference of degree span d vanishes there only if
# EVAL_Q is one of its at most d roots, odds of about d/EVAL_P for a changed
# coefficient.  It replaces Laurent products of whole characters, which
# made the check three times slower than the computation it checks.
EVAL_P = (1 << 61) - 1
EVAL_Q = 1_000_003


@functools.cache
def _q_power(e: int) -> int:
    return pow(EVAL_Q, e, EVAL_P)


def _ev(c) -> int:
    return sum(a * _q_power(e) for e, a in c.c.items()) % EVAL_P


# -- dual root vectors --------------------------------------------------------------

def _lyndon_words(rs, name: str) -> dict:
    from klrchar import good_lyndon_words, tables

    if name == "pbw-e8":
        words = [tuple(int(x) for x in w) for w in tables.E8_LYNDON]
        out = {}
        for w in words:
            weight = [0] * rs.rank
            for i in w:
                weight[i - 1] += 1
            out[tuple(weight)] = w
        return out
    return good_lyndon_words(rs)


def pair_shuffle_apart(u, v, B) -> dict:
    """The shuffle product u o v of two words, evaluated at q = EVAL_Q.

    Written apart from klrchar's ``_pair_shuffle``: it runs over the
    positions of v's letters in the merged word, and an interleaving has
    degree minus the form summed over its crossing pairs, a letter of v
    placed in front of a letter of u.
    """
    m, n = len(u), len(v)
    # form_after[a][b]: the form of v[b] with the letters u[a:]
    form_after = [[0] * n for _ in range(m + 1)]
    for a in range(m - 1, -1, -1):
        row, Bu = form_after[a + 1], B[u[a] - 1]
        form_after[a] = [f + Bu[y - 1] for f, y in zip(row, v)]
    out: dict = {}
    for pos in combinations(range(m + n), n):
        word = list(u)
        deg = 0
        for b, p in enumerate(pos):
            # p - b letters of u come before v[b]: it crosses u[p - b:]
            deg -= form_after[p - b][b]
            word.insert(p, v[b])
        word = tuple(word)
        out[word] = (out.get(word, 0) + _q_power(deg)) % EVAL_P
    return out


def _rank_two_problem(alpha, ch, chars, order, rs, pairs: dict) -> str | None:
    """The solve's own identity, multiplied back out apart from klrchar.

    For the fixed minimal pair (beta, gamma) of alpha:
      r*_g o r*_b - q^{-(b,g)} r*_b o r*_g = (q^{-p} - q^{p-2(b,g)}) r*_alpha,
    compared word by word at q = EVAL_Q with ``pair_shuffle_apart``.
    ``pairs`` memoizes word-pair products across the roots of one check.
    """
    from klrchar import mp_choice, p_max

    beta, gamma = mp_choice(alpha, order)
    cb, cg = chars.get(beta), chars.get(gamma)
    if cb is None or cg is None:
        return f"{alpha}: parts {beta}, {gamma} missing from the outputs"
    bg = rs.form(beta, gamma)
    B = rs.bilinear_matrix
    ev_b = {w: _ev(c) for w, c in cb.items()}
    ev_g = {w: _ev(c) for w, c in cg.items()}
    lhs: dict = {}
    for left, right, scale in ((ev_g, ev_b, 1), (ev_b, ev_g, -_q_power(-bg))):
        for u, cu in left.items():
            for v, cv in right.items():
                prod = pairs.get((u, v))
                if prod is None:
                    prod = pairs[(u, v)] = pair_shuffle_apart(u, v, B)
                c = scale * cu * cv
                for w, x in prod.items():
                    lhs[w] = (lhs.get(w, 0) + c * x) % EVAL_P
    p = p_max(rs, beta, gamma)
    factor = _q_power(-p) - _q_power(p - 2 * bg)
    rhs = {w: _ev(c) * factor % EVAL_P for w, c in ch.items()}
    if {w: x for w, x in lhs.items() if x} != {w: x for w, x in rhs.items() if x}:
        return f"{alpha}: q-commutator of ({beta}, {gamma}) does not give r*"
    return None


def check_pbw(name: str, inputs: dict, outcome) -> list[str]:
    from klrchar.kostant import root_kappa

    problems = []
    rs = inputs["rs"]
    lyndon = _lyndon_words(rs, name)
    by_order: dict[int, dict] = {}
    for (k, alpha), ch in outcome.results.items():
        if ch is not None:
            by_order.setdefault(k, {})[alpha] = ch
    seen = set()
    pairs: dict = {}
    for k, chars in by_order.items():
        order = inputs["orders"][k]
        for alpha, ch in chars.items():
            where = f"order {k} root {alpha}"
            if not ch:
                problems.append(f"{where}: empty character")
                continue
            for w, c in ch.items():
                weight = [0] * rs.rank
                for i in w:
                    weight[i - 1] += 1
                if tuple(weight) != alpha:
                    problems.append(f"{where}: word {w} has weight {tuple(weight)}")
                    break
                if not c.is_bar_invariant():
                    problems.append(f"{where}: coefficient of {w} is not bar-invariant")
                    break
            if k == 0:
                top = max(ch)
                if top != lyndon[alpha]:
                    problems.append(f"{where}: largest word {top} is not the "
                                    f"good Lyndon word {lyndon[alpha]}")
                elif ch[top] != root_kappa(alpha, order):
                    problems.append(f"{where}: Lyndon coefficient {ch[top]} "
                                    f"is not kappa")
            # orders that share a minimal-pair tree share the character
            # object, so each distinct character is multiplied out once
            if sum(alpha) > 1 and id(ch) not in seen:
                seen.add(id(ch))
                bad = _rank_two_problem(alpha, ch, chars, order, rs, pairs)
                if bad:
                    problems.append(f"order {k} {bad}")
    return problems


# -- dual canonical tables ----------------------------------------------------------

def _linear_extension(kps, order):
    """Smallest first: each partition after every partition below it."""
    from klrchar import kp_less

    placed, remaining = [], list(kps)
    while remaining:
        lam = next(l for l in remaining
                   if not any(kp_less(m, l, order) for m in remaining if m != l))
        placed.append(lam)
        remaining.remove(lam)
    return placed


def unitriangular_problem(lam, ch, kps_desc, scalars, standards, order) -> str | None:
    """Expand b*_lam over dual PBW: b*_lam = sum_mu p_mu E*_mu.

    The p_mu come from peeling the coefficients at the distinguished words
    i_mu, largest partition first (``kps_desc``).  p_lam must be 1 and every
    other p_mu in qZ[q] at a partition below lam.  The expansion is then
    compared with b*_lam on every word.  ``scalars`` maps mu to
    ``kp_scalars(mu, order)``; ``standards`` maps mu to the pair (E*_mu at
    the words i_nu, E*_mu evaluated word by word).
    """
    from klrchar import ExactDivisionError, kp_less

    residue = {nu: ch.get(scalars[nu][3]) for nu in kps_desc}
    coeffs = {}
    for mu in kps_desc:
        a = residue[mu]
        if not a:
            continue
        try:
            c = a.exact_div(scalars[mu][2])
        except ExactDivisionError:
            return f"{lam}: coefficient at the word of {mu} is not a multiple of kappa"
        coeffs[mu] = c
        for nu, e in standards[mu][0].items():
            cur = residue[nu]
            residue[nu] = -(c * e) if cur is None else cur - c * e
    if coeffs.get(lam) != 1:
        return f"{lam}: diagonal coefficient {coeffs.get(lam)} is not 1"
    for mu, c in coeffs.items():
        if mu == lam:
            continue
        if not kp_less(mu, lam, order):
            return f"{lam}: coefficient at {mu}, which is not below it"
        if min(c.c) <= 0:
            return f"{lam}: coefficient {c} at {mu} is not in qZ[q]"
    total: dict = {}
    for mu, c in coeffs.items():
        ct = _ev(c)
        for w, v in standards[mu][1].items():
            total[w] = (total.get(w, 0) + ct * v) % EVAL_P
    if {w: v for w, v in total.items() if v} != {w: _ev(c) for w, c in ch.items()}:
        return f"{lam}: differs from its expansion over the dual PBW characters"
    return None


def check_canonical(name: str, inputs: dict, outcome) -> list[str]:
    from klrchar import PBWCharacters, kp_scalars

    problems = []
    for label, order, _ in inputs["tables"]:
        computed, reloaded = outcome.results[label]
        kps_desc = list(reversed(_linear_extension(list(computed), order)))
        scalars = {nu: kp_scalars(nu, order) for nu in kps_desc}
        pbw = PBWCharacters(order)
        standards = {}
        for mu in kps_desc:
            e = pbw.proper_standard(mu)
            standards[mu] = ({nu: e[s[3]] for nu, s in scalars.items() if s[3] in e},
                             {w: _ev(c) for w, c in e.items()})
        for lam, ch in computed.items():
            if ch is None:
                continue
            if not all(c.is_bar_invariant() for c in ch.values()):
                problems.append(f"{label} {lam}: not bar-invariant")
                continue
            bad = unitriangular_problem(lam, ch, kps_desc, scalars, standards, order)
            if bad:
                problems.append(f"{label} {bad}")
        if reloaded is not None:
            for lam, ch in computed.items():
                if ch is not None and _poly_key(reloaded.get(lam, {})) != _poly_key(ch):
                    problems.append(f"{label} {lam}: reloaded character differs")
    return problems


# -- Gram matrices and resolutions -------------------------------------------------

def rank_apart(matrix, p: int = 0) -> int:
    """Rank over Q (p = 0) or F_p, by fraction-free elimination.

    Written apart from klrchar's ``rank_over`` so that the reported ranks
    are checked by a second computation.
    """
    rows = [list(r) for r in matrix if any(r)]
    if p:
        rows = [[a % p for a in r] for r in rows]
    rank = 0
    ncols = len(matrix[0]) if matrix else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        a = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            b = rows[r][col]
            if b:
                rows[r] = [a * x - b * y for x, y in zip(rows[r], rows[rank])]
                if p:
                    rows[r] = [x % p for x in rows[r]]
        rank += 1
    return rank


def check_gram_resolve(name: str, inputs: dict, outcome) -> list[str]:
    problems = []
    for word, result in outcome.results["gram"]:
        if result is None:
            continue
        G, r0, r2 = result
        where = "gram " + "".join(map(str, word))
        n = len(G)
        if any(len(row) != n for row in G):
            problems.append(f"{where}: matrix is not square")
            continue
        if any(G[i][j] != G[j][i] for i in range(n) for j in range(i)):
            problems.append(f"{where}: not symmetric")
        if (r0, r2) != (rank_apart(G, 0), rank_apart(G, 2)):
            problems.append(f"{where}: reported ranks ({r0}, {r2}) differ from "
                            f"({rank_apart(G, 0)}, {rank_apart(G, 2)})")
        if r2 > r0:
            problems.append(f"{where}: rank over F_2 {r2} exceeds rank over Q {r0}")
        # the paper's slice, and by the commuting-swap isometry every word
        # of its commutation class: dimension 5, rank 3 over Q, 2 over F_2
        if (n, r0, r2) != (5, 3, 2):
            problems.append(f"{where}: (dim, rank Q, rank F2) = {(n, r0, r2)}, "
                            f"expected (5, 3, 2)")
    for label, rows in outcome.results.items():
        if label == "gram":
            continue
        for alpha, result in rows:
            if result is None:
                continue
            cx, d2_zero, euler_ok = result
            where = f"{label} {alpha}"
            n = sum(alpha)
            sizes = {d: len(s) for d, s in cx.terms.items()}
            want = {d: comb(n - 1, d) for d in range(n)}
            if sizes != want:
                problems.append(f"{where}: summands per degree {sizes}, "
                                f"expected {want}")
            letters = sorted(i + 1 for i, c in enumerate(alpha) for _ in range(c))
            if any(sorted(w) != letters for s in cx.terms.values() for _, w in s):
                problems.append(f"{where}: a summand word has the wrong weight")
            if not d2_zero:
                problems.append(f"{where}: d^2 != 0")
            if not euler_ok:
                problems.append(f"{where}: Euler characteristic differs from "
                                f"the standard-module character")
    return problems


CHECKS = {
    "pbw-orders": check_pbw,
    "pbw-e8": check_pbw,
    "canonical-b3": check_canonical,
    "gram-resolve": check_gram_resolve,
}


def check(name: str, inputs: dict, outcome) -> list[str]:
    return CHECKS[name](name, inputs, outcome)
