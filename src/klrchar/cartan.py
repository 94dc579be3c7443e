"""Cartan and root-system data for the finite families A-G.

Node numbering: A_r and B_r/C_r are chains 1..r; D_r is the chain 1..r-1
with node r attached to r-2; E_r is the chain 1..r-1 with node r attached
to r-3; F4 is 1-2=>3-4 (1,2 long); G2 has node 1 short and node 2 long.

Roots are integer coordinate vectors over the simple roots, so all
arithmetic is exact and roots hash cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass

Root = tuple[int, ...]

FAMILIES = frozenset("ABCDEFG")

_RANK_OK = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 4,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not _RANK_OK[self.family](self.rank):
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")

    def __str__(self):
        return f"{self.family}{self.rank}"


def _edges(ct: CartanType) -> list[tuple[int, int]]:
    """Dynkin diagram edges as 1-based node pairs (single/double/triple alike)."""
    r = ct.rank
    chain = [(i, i + 1) for i in range(1, r)]
    if ct.family in ("A", "B", "C", "F", "G"):
        return chain
    if ct.family == "D":
        return [(i, i + 1) for i in range(1, r - 1)] + [(r - 2, r)]
    # E
    return [(i, i + 1) for i in range(1, r - 1)] + [(r - 3, r)]


def _symmetrizers(ct: CartanType) -> tuple[int, ...]:
    r = ct.rank
    if ct.family in ("A", "D", "E"):
        return (1,) * r
    if ct.family == "B":
        return (2,) * (r - 1) + (1,)
    if ct.family == "C":
        return (1,) * (r - 1) + (2,)
    if ct.family == "F":
        return (2, 2, 1, 1)
    return (1, 3)  # G2


class RootSystem:
    """Immutable finite root system with the paper's numbering conventions."""

    def __init__(self, ct: CartanType):
        self.cartan_type = ct
        self.rank = ct.rank
        self.d = _symmetrizers(ct)
        self.cartan = self._build_cartan(ct)
        # symmetric form on the root lattice: B[i][j] = alpha_i . alpha_j
        self.bilinear_matrix = tuple(
            tuple(self.d[i] * self.cartan[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )
        self._roots = self._generate_roots()
        pos = sorted((b for b in self._roots if all(c >= 0 for c in b)),
                     key=lambda b: (sum(b), b))
        self.positive_roots: tuple[Root, ...] = tuple(pos)
        self.root_set = frozenset(self._roots)
        self.positive_set = frozenset(pos)
        self._positive = {b: b for b in pos}  # one stored tuple per root
        self._decompositions: dict[Root, tuple[tuple[Root, Root], ...]] = {}
        # memos of shuffle.py and pbw.py, shared by every ordering of this system
        self._shuffle_pair_cache: dict = {}  # (i, j, width, offset) -> packed i o j
        self._shuffle_words: dict = {}  # each word of the memo, one object per value
        # hash of a dual root character's items -> the characters with that
        # hash, one object per value (pbw._intern)
        self._root_chars: dict[int, list[dict]] = {}
        self._solves: dict[tuple[int, int], dict] = {}  # input ids -> r*_alpha

    def _build_cartan(self, ct: CartanType) -> tuple[tuple[int, ...], ...]:
        r = ct.rank
        d = self.d
        C = [[0] * r for _ in range(r)]
        for i in range(r):
            C[i][i] = 2
        for i, j in _edges(ct):
            i, j = i - 1, j - 1
            # alpha_i . alpha_j = -max(d_i, d_j) on an edge in these diagrams,
            # except the G2 triple edge where it is -3
            aij = -max(d[i], d[j])
            C[i][j] = aij // d[i]
            C[j][i] = aij // d[j]
        return tuple(tuple(row) for row in C)

    def _generate_roots(self) -> set[Root]:
        simples = [self.simple_root(i) for i in range(self.rank)]
        roots = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for b in frontier:
                for i in range(self.rank):
                    rb = self.reflect(i, b)
                    if rb not in roots:
                        roots.add(rb)
                        nxt.append(rb)
            frontier = nxt
        return roots

    # -- basic operations ----------------------------------------------------

    def reflect(self, i: int, b: Root) -> Root:
        """Simple reflection s_{i+1} acting on a lattice vector (i is 0-based)."""
        t = sum(self.cartan[i][j] * b[j] for j in range(self.rank))
        return tuple(b[j] - t * (1 if j == i else 0) for j in range(self.rank))

    def simple_root(self, i: int) -> Root:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def form(self, a, b) -> int:
        B = self.bilinear_matrix
        return sum(a[i] * B[i][j] * b[j]
                   for i in range(self.rank) for j in range(self.rank)
                   if a[i] and b[j])

    def d_root(self, b: Root) -> int:
        return self.form(b, b) // 2

    def decompositions(self, alpha: Root) -> tuple[tuple[Root, Root], ...]:
        """Every (beta, gamma) of positive roots with beta + gamma = alpha."""
        found = self._decompositions.get(alpha)
        if found is None:
            h = sum(alpha)
            found = []
            for beta in self.positive_roots:  # sorted by height
                if sum(beta) >= h:
                    break
                gamma = self._positive.get(tuple([a - b for a, b in zip(alpha, beta)]))
                if gamma is not None:
                    found.append((beta, gamma))
            found = self._decompositions[alpha] = tuple(found)
        return found

    def key(self) -> str:
        return str(self.cartan_type)

    def __repr__(self):
        return f"RootSystem({self.cartan_type})"


def p_max(rs: RootSystem, beta: Root, gamma: Root) -> int:
    """Largest p with beta - p*gamma a root (tested in the full root system).

    beta and gamma must be roots: then p = 0 always qualifies, and a root
    string holds at most 4 roots, so only p = 3, ..., 0 are tried.  Where no
    such p qualifies, beta is not a root and ValueError is raised, even if
    beta - p*gamma is a root for some negative p.
    """
    for p in range(3, -1, -1):
        if tuple([b - p * g for b, g in zip(beta, gamma)]) in rs.root_set:
            return p
    raise ValueError(f"{beta} is not a root")


def check_cases_identity(rs: RootSystem, alpha: Root, beta: Root, gamma: Root) -> bool:
    """Rank-two scale-factor identity for a root decomposition alpha = beta + gamma.

    Checks d_a(p - b.g) = d_b d_g (p + 1) together with its bracketed
    quantum-integer version, exactly.
    """
    from .laurent import LaurentPoly

    if tuple(a + b for a, b in zip(beta, gamma)) != tuple(alpha):
        raise ValueError("beta + gamma != alpha")
    for b in (alpha, beta, gamma):
        if b not in rs.positive_set:
            raise ValueError(f"{b} not a positive root")
    p = p_max(rs, beta, gamma)
    bg = rs.form(beta, gamma)
    da, db, dg = rs.d_root(alpha), rs.d_root(beta), rs.d_root(gamma)
    if da * (p - bg) != db * dg * (p + 1):
        return False
    lhs = LaurentPoly.qint(da) * LaurentPoly.qint(p - bg)
    rhs = LaurentPoly.qint(db) * LaurentPoly.qint(dg) * LaurentPoly.qint(p + 1)
    return lhs == rhs
