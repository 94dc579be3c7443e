"""Kostant partitions, the bipartite order on them, and the derived scalars.

A Kostant partition of a weight is a weakly decreasing (for the fixed convex
order) sequence of positive roots summing to it.  The partial order compares
first differences from both ends; the scalars [lambda]!, s_lambda,
kappa_lambda and the word i_lambda feed the dual canonical basis algorithm.
"""

from __future__ import annotations

from .cartan import Root, RootSystem, p_max
from .convex import ConvexOrder, Word, mp_choice
from .laurent import LaurentPoly

KP = tuple[Root, ...]


def kostant_partitions(weight, order: ConvexOrder) -> list[KP]:
    """All Kostant partitions of the given weight, parts weakly decreasing."""
    rs = order.rs
    weight = tuple(weight)
    n = rs.rank
    roots_desc = [order.roots[k] for k in range(len(order.roots) - 1, -1, -1)]
    out: list[KP] = []

    def rec(rem, start, acc):
        if all(c == 0 for c in rem):
            out.append(tuple(acc))
            return
        for t in range(start, len(roots_desc)):
            b = roots_desc[t]
            nxt = tuple(rem[k] - b[k] for k in range(n))
            if all(c >= 0 for c in nxt):
                acc.append(b)
                rec(nxt, t, acc)
                acc.pop()

    if any(c < 0 for c in weight):
        return []
    rec(weight, 0, [])
    return out


def check_kp(lam: KP, order: ConvexOrder) -> None:
    """Raise ValueError unless lam is a Kostant partition of the order."""
    r = order.rank_of
    for b in lam:
        if b not in r:
            raise ValueError(f"part {b} is not a positive root of {order.rs.cartan_type}")
    for a, b in zip(lam, lam[1:]):
        if r[a] < r[b]:
            raise ValueError("parts must be weakly decreasing")


def kp_less(lam: KP, mu: KP, order: ConvexOrder) -> bool:
    """Strict comparison lam < mu in the KP order.

    Requires both the head condition (first differing part from the left is
    smaller) and the tail condition (first differing part from the right is
    larger).
    """
    if sum_weight(lam, order.rs) != sum_weight(mu, order.rs):
        raise ValueError("weight mismatch")
    if lam == mu:
        return False
    r = order.rank_of
    head = None
    for a, b in zip(lam, mu):
        if a != b:
            head = r[a] < r[b]
            break
    tail = None
    for a, b in zip(reversed(lam), reversed(mu)):
        if a != b:
            tail = r[a] > r[b]
            break
    return bool(head) and bool(tail)


def sum_weight(lam: KP, rs: RootSystem):
    n = rs.rank
    w = [0] * n
    for b in lam:
        for k in range(n):
            w[k] += b[k]
    return tuple(w)


def multiplicities(lam: KP) -> dict[Root, int]:
    m: dict[Root, int] = {}
    for b in lam:
        m[b] = m.get(b, 0) + 1
    return m


def root_word(alpha: Root, order: ConvexOrder) -> Word:
    """The word i_alpha built from the fixed minimal pair choice."""
    if sum(alpha) == 1:
        return (alpha.index(1) + 1,)
    beta, gamma = mp_choice(alpha, order)
    return root_word(gamma, order) + root_word(beta, order)


def root_kappa(alpha: Root, order: ConvexOrder) -> LaurentPoly:
    """kappa_alpha = [p+1] kappa_beta kappa_gamma along the mp recursion."""
    if sum(alpha) == 1:
        return LaurentPoly.one()
    beta, gamma = mp_choice(alpha, order)
    p = p_max(order.rs, beta, gamma)
    return LaurentPoly.qint(p + 1) * root_kappa(beta, order) * root_kappa(gamma, order)


def kp_scalars(lam: KP, order: ConvexOrder):
    """([lambda]!, s_lambda, kappa_lambda, i_lambda) for a Kostant partition."""
    rs = order.rs
    fact = LaurentPoly.one()
    s = 0
    for b, m in multiplicities(lam).items():
        db = rs.d_root(b)
        fact = fact * LaurentPoly.qfact(m, db)
        s += db * m * (m - 1) // 2
    kappa = fact
    word: Word = ()
    for b in lam:
        kappa = kappa * root_kappa(b, order)
        word = word + root_word(b, order)
    return fact, s, kappa, word


def kp_sort_key(lam: KP, order: ConvexOrder):
    """Deterministic display key: rank sequence of the parts."""
    return tuple(order.rank_of[b] for b in lam)
