"""Convex orderings of the positive roots.

Orderings come from reduced expressions of the longest Weyl group element
(one root per letter), or from the lexicographic order on good Lyndon words.
Minimal pairs and the fixed choice mp(alpha) (gamma maximal) live here too.
"""

from __future__ import annotations

import random

from .cartan import Root, RootSystem

Word = tuple[int, ...]


class NotReducedError(ValueError):
    pass


class ConvexOrder:
    """A total order on the positive roots, stored as a ranked list."""

    def __init__(self, rs: RootSystem, roots: list[Root], label: str):
        if set(roots) != rs.positive_set or len(roots) != len(rs.positive_set):
            raise ValueError("not a permutation of the positive roots")
        self.rs = rs
        self.roots: tuple[Root, ...] = tuple(roots)
        self.rank_of = {b: k for k, b in enumerate(roots)}
        self.label = label

    def precedes(self, a: Root, b: Root) -> bool:
        return self.rank_of[a] < self.rank_of[b]

    def fingerprint(self) -> str:
        return ",".join("".join(map(str, b)) for b in self.roots)

    def __repr__(self):
        return f"ConvexOrder({self.rs.cartan_type}, {self.label})"


def _step(rs: RootSystem, P: list[Root], i: int) -> list[Root]:
    """The images w s_i(alpha_j) from P[j] = w(alpha_j) (i is 0-based).

    w s_i is longer than w exactly when P[i] is positive.
    """
    Pi = P[i]
    return [tuple(a - c * b for a, b in zip(Pj, Pi)) if c else Pj
            for Pj, c in zip(P, rs.cartan[i])]


def order_from_reduced_word(word: Word, rs: RootSystem) -> ConvexOrder:
    """The ordering alpha_{i_1} < s_{i_1}(alpha_{i_2}) < ... from a reduced
    word for the longest element.  Letters are 1-based node labels."""
    n_pos = len(rs.positive_roots)
    if len(word) != n_pos:
        raise NotReducedError(f"word has length {len(word)}, expected {n_pos}")
    # the k-th root is w(alpha_{i_k}) for w = s_{i_1}...s_{i_{k-1}}
    P = [rs.simple_root(j) for j in range(rs.rank)]
    roots: list[Root] = []
    for i in word:
        if not 1 <= i <= rs.rank:
            raise NotReducedError(f"letter {i} is not a node of {rs.cartan_type}")
        if min(P[i - 1]) < 0:
            raise NotReducedError("word is not a reduced expression of w0")
        roots.append(P[i - 1])
        P = _step(rs, P, i - 1)
    return ConvexOrder(rs, roots, "word:" + "".join(map(str, word)))


def is_convex(roots: list[Root] | ConvexOrder, rs: RootSystem | None = None) -> bool:
    if isinstance(roots, ConvexOrder):
        rs = roots.rs
        roots = list(roots.roots)
    rank = {b: k for k, b in enumerate(roots)}
    if set(rank) != rs.positive_set:
        return False
    for s in rs.positive_roots:
        for a, b in rs.decompositions(s):  # holds (b, a) too
            if rank[a] < rank[b] and not rank[a] < rank[s] < rank[b]:
                return False
    return True


def reduced_words_of_w0(rs: RootSystem):
    """Yield all reduced words of w0 (1-based letters) by depth-first search.

    Only sensible in small rank.
    """
    total = len(rs.positive_roots)

    def rec(P, word):
        if len(word) == total:
            yield tuple(word)
            return
        for i, b in enumerate(P):
            if min(b) >= 0:
                word.append(i + 1)
                yield from rec(_step(rs, P, i), word)
                word.pop()

    yield from rec([rs.simple_root(j) for j in range(rs.rank)], [])


def random_reduced_word(rs: RootSystem, rng: random.Random) -> Word:
    """One reduced word of w0 sampled by a random ascent walk."""
    P = [rs.simple_root(j) for j in range(rs.rank)]
    word = []
    for _ in range(len(rs.positive_roots)):
        i = rng.choice([i for i, b in enumerate(P) if min(b) >= 0])
        P = _step(rs, P, i)
        word.append(i + 1)
    return tuple(word)


def good_lyndon_words(rs: RootSystem) -> dict[Root, Word]:
    """The good Lyndon word of each positive root.

    Recursion on height: l(alpha) is the lexicographically largest
    concatenation l(gamma)l(beta) over root decompositions alpha=beta+gamma
    with l(beta) > l(gamma).  Letters compare by node label, with a proper
    prefix smaller than the full word.
    """
    words: dict[Root, Word] = {rs.simple_root(i): (i + 1,) for i in range(rs.rank)}
    for alpha in rs.positive_roots[rs.rank:]:  # by height, after the simple roots
        cands = [words[g] + words[b] for b, g in rs.decompositions(alpha)
                 if words[b] > words[g]]
        if not cands:
            raise RuntimeError(f"no decomposition found for {alpha}")
        words[alpha] = max(cands)
    return words


def lyndon_order(rs: RootSystem) -> ConvexOrder:
    words = good_lyndon_words(rs)
    roots = sorted(rs.positive_set, key=lambda b: words[b])
    return ConvexOrder(rs, roots, "lyndon")


def _ordered_decompositions(alpha: Root, order: ConvexOrder) -> list[tuple[Root, Root]]:
    """The decompositions alpha = beta + gamma with gamma before beta."""
    if sum(alpha) < 2:
        raise ValueError("alpha must have height >= 2")
    return [(b, g) for b, g in order.rs.decompositions(alpha) if order.precedes(g, b)]


def minimal_pairs(alpha: Root, order: ConvexOrder) -> list[tuple[Root, Root]]:
    """All minimal pairs (beta, gamma), beta > gamma, beta + gamma = alpha.

    A pair is minimal when no other decomposition (beta', gamma') squeezes in
    with beta > beta' and gamma' > gamma.
    """
    pairs = _ordered_decompositions(alpha, order)
    out = []
    for beta, gamma in pairs:
        dominated = any(
            order.precedes(b2, beta) and order.precedes(gamma, g2)
            for b2, g2 in pairs if (b2, g2) != (beta, gamma)
        )
        if not dominated:
            out.append((beta, gamma))
    out.sort(key=lambda p: order.rank_of[p[0]])
    return out


def mp_choice(alpha: Root, order: ConvexOrder) -> tuple[Root, Root]:
    """The fixed minimal pair: the decomposition with gamma maximal."""
    pairs = _ordered_decompositions(alpha, order)
    if not pairs:
        raise ValueError(f"{alpha} has no two-part decomposition")
    return max(pairs, key=lambda p: order.rank_of[p[1]])
