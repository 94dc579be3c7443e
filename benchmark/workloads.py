"""The four benchmark workloads: inputs, timed operations and work counts.

Each workload is three functions:

* ``build(seed, small, tmp)`` makes the inputs.  It runs inside the set-up
  span, so everything it builds (root systems, convex orders, engines,
  modules, seeded word lists) counts towards ``setup_s``.
* ``run(inputs)`` makes the timed calls into klrchar's public functions and
  returns an ``Outcome``.  Every call is one operation; an operation that
  raises is counted as failed and the run goes on.
* ``check(inputs, outcome)`` lives in ``checks.py`` and runs after the
  timed span.

``small=True`` shrinks every input list so that the benchmark's own tests can
push each workload through the same code path in a second or two.

klrchar is imported inside the functions, never at module level, so that
the worker can start its set-up clock before the first ``import klrchar``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

# pbw-orders: the Lyndon order in full, then seeded random reduced-word
# orders restricted to roots of height <= PBW_ORDERS_HEIGHT.  F4's two roots
# above that height carry the largest characters, and under random orders
# their size swings with the seed by a factor of three; keeping them to the
# one fixed order makes the round cost nearly independent of the seed.
PBW_ORDERS_RANDOM = 200
PBW_ORDERS_HEIGHT = 9

# pbw-e8: heights up to 21 keep a round near 3.5-4 s and 176 MB.  Height 22
# took 6.9 s and 7.5 s (308 MB) in two runs interleaved with two of height
# 21 (3.5 s, 3.7 s), and the highest root runs out of memory today.
PBW_E8_HEIGHT = 21

CANONICAL_B3_WEIGHT = (2, 4, 4)
CANONICAL_A10_WEIGHT = (0, 0, 0, 0, 0, 0, 0, 0, 1, 1)

# The paper's characteristic-2 example in A5: the proper standard module of
# lambda = (a45, a45, a3, a3, a24, a24, a12, a12) and its 16-strand word.
GRAM_LAMBDA = ((0, 0, 0, 1, 1), (0, 0, 0, 1, 1), (0, 0, 1, 0, 0),
               (0, 0, 1, 0, 0), (0, 1, 1, 1, 0), (0, 1, 1, 1, 0),
               (1, 1, 0, 0, 0), (1, 1, 0, 0, 0))
GRAM_PAPER_WORD = (4, 5, 3, 4, 2, 3, 4, 5, 2, 3, 1, 2, 3, 4, 1, 2)
# Seeded words come from the commutation class of the paper's word (800
# words).  Swapping two adjacent letters i, j with a_ij = 0 is tau_k, which
# squares to 1 there and has degree 0, so it is an isometry between the two
# degree-0 slices: every word in the class has a 5-dimensional slice and the
# same ranks.  That keeps the per-word cost within a narrow band (0.1-0.3 s),
# where arbitrary interleavings of the part words range from 0.03 s to 40 s.
GRAM_SEEDED_WORDS = 12
RESOLVE_TYPES = (("E", 6), ("D", 6))
EULER_TRUNC = 12


@dataclass
class Outcome:
    """What one round produced, with per-operation bookkeeping."""

    results: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def attempt(self, label: str, fn, *args):
        """Run one operation; a raise counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # noqa: BLE001 - every failure is counted
            self.failed += 1
            self.errors.append(f"{label}: {type(e).__name__}: {e}")
            return None


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# -- pbw-orders ---------------------------------------------------------------

def build_pbw_orders(seed: int, small: bool = False, tmp=None) -> dict:
    from klrchar import CartanType, RootSystem, lyndon_order
    from klrchar.convex import order_from_reduced_word, random_reduced_word

    rs = RootSystem(CartanType("F", 4))
    rng = random.Random(seed)
    n_random = 2 if small else PBW_ORDERS_RANDOM
    height = 6 if small else PBW_ORDERS_HEIGHT
    orders = [lyndon_order(rs)]
    orders += [order_from_reduced_word(random_reduced_word(rs, rng), rs)
               for _ in range(n_random)]
    jobs = [(k, [a for a in o.roots if k == 0 or sum(a) <= height])
            for k, o in enumerate(orders)]
    return {"rs": rs, "orders": orders, "jobs": jobs}


def run_pbw(inputs: dict) -> Outcome:
    from klrchar import PBWCharacters

    out = Outcome()
    chars = out.results
    for k, roots in inputs["jobs"]:
        pbw = PBWCharacters(inputs["orders"][k])
        for alpha in roots:
            chars[(k, alpha)] = out.attempt(f"order {k} root {alpha}",
                                            pbw.dual_root, alpha)
    return out


def counts_pbw(outcome: Outcome) -> dict:
    sizes = [[list(key[-1]), len(ch) if ch is not None else -1]
             for key, ch in outcome.results.items()]
    return {"output_words": sum(s for _, s in sizes if s > 0),
            "output_words_digest": _digest(sizes)}


# -- pbw-e8 -------------------------------------------------------------------

def build_pbw_e8(seed: int, small: bool = False, tmp=None) -> dict:
    from klrchar import CartanType, RootSystem, lyndon_order

    rs = RootSystem(CartanType("E", 8))
    order = lyndon_order(rs)
    height = 8 if small else PBW_E8_HEIGHT
    # the Lyndon order is unique, so the seed does not enter these inputs.
    # Permuting the requests by seed was tried: the solves stay the same,
    # but peak RSS then moved by 8 % between seeds.
    roots = [a for a in order.roots if sum(a) <= height]
    return {"rs": rs, "orders": [order], "jobs": [(0, roots)]}


# -- canonical-b3 ---------------------------------------------------------------

class RefusingPBW:
    """Stands in for PBWCharacters when a table must come from the cache.

    A reloaded table that tries to compute anything calls into this object
    and fails, so a cache that silently did not load cannot pass as one
    that did.
    """

    def __getattr__(self, name):
        raise RuntimeError(f"reloaded table tried to compute ({name})")


def build_canonical(seed: int, small: bool = False, tmp=None) -> dict:
    from klrchar import CartanType, RootSystem, lyndon_order

    b3 = RootSystem(CartanType("B", 3))
    a10 = RootSystem(CartanType("A", 10))
    # the B3 weight is fixed and the Lyndon order is unique, so the seed
    # does not enter these inputs
    return {
        "tables": [
            ("B3", lyndon_order(b3), (1, 2, 2) if small else CANONICAL_B3_WEIGHT),
            ("A10", lyndon_order(a10), CANONICAL_A10_WEIGHT),
        ],
        "cache_dir": str(tmp),
    }


def _compute_table(order, weight, cache_dir, out: Outcome, label: str):
    from klrchar import CanonicalTable

    table = CanonicalTable(order, cache_dir=cache_dir)
    kps = table.compute_weight(weight)
    return {lam: out.attempt(f"{label} {lam}", table.char, lam) for lam in kps}


def _reload_table(order, kps, cache_dir):
    from klrchar import CanonicalTable

    table = CanonicalTable(order, pbw=RefusingPBW(), cache_dir=cache_dir)
    return {lam: table.char(lam) for lam in kps}


def run_canonical(inputs: dict) -> Outcome:
    out = Outcome()
    cache_dir = inputs["cache_dir"]
    for label, order, weight in inputs["tables"]:
        computed = _compute_table(order, weight, cache_dir, out, label)
        reloaded = out.attempt(f"{label} reload", _reload_table, order,
                               list(computed), cache_dir)
        out.results[label] = (computed, reloaded)
    return out


def counts_canonical(outcome: Outcome) -> dict:
    sizes = {label: [[repr(lam), len(ch) if ch is not None else -1]
                     for lam, ch in computed.items()]
             for label, (computed, _) in outcome.results.items()}
    return {"output_words": sum(s for rows in sizes.values() for _, s in rows if s > 0),
            "output_words_digest": _digest(sizes)}


# -- gram-resolve -----------------------------------------------------------------

def commutation_class(word, rs):
    """All words reached from ``word`` by swapping adjacent commuting letters."""
    C = rs.cartan
    word = tuple(word)
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for k in range(len(w) - 1):
                a, b = w[k], w[k + 1]
                if a != b and C[a - 1][b - 1] == 0:
                    w2 = w[:k] + (b, a) + w[k + 2:]
                    if w2 not in seen:
                        seen.add(w2)
                        nxt.append(w2)
        frontier = nxt
    return sorted(seen)


def build_gram_resolve(seed: int, small: bool = False, tmp=None) -> dict:
    from klrchar import (KLR, CartanType, PBWCharacters, ProperStandard,
                         RootSystem, lyndon_order)

    a5 = RootSystem(CartanType("A", 5))
    order = lyndon_order(a5)
    module = ProperStandard(KLR(a5), order, GRAM_LAMBDA, PBWCharacters(order))
    others = [w for w in commutation_class(GRAM_PAPER_WORD, a5) if w != GRAM_PAPER_WORD]
    words = [GRAM_PAPER_WORD] + random.Random(seed).sample(
        others, 2 if small else GRAM_SEEDED_WORDS)
    sweeps = []
    for family, rank in RESOLVE_TYPES:
        rs = RootSystem(CartanType(family, rank))
        o = lyndon_order(rs)
        roots = [a for a in rs.positive_roots
                 if all(c <= 1 for c in a) and (not small or sum(a) <= 4)]
        sweeps.append((f"{family}{rank}", o, KLR(rs), PBWCharacters(o), roots))
    return {"module": module, "words": words, "sweeps": sweeps}


def _gram(module, word):
    from klrchar import rank_over

    G = module.gram_matrix(word, 0)
    return G, rank_over(G, 0), rank_over(G, 2)


def _resolve(alpha, order, engine, pbw):
    from klrchar import resolution, verify_complex
    from klrchar.resolutions import euler_matches

    cx = resolution(alpha, order, engine)
    return cx, verify_complex(cx), euler_matches(cx, order, pbw, EULER_TRUNC)


def run_gram_resolve(inputs: dict) -> Outcome:
    out = Outcome()
    module = inputs["module"]
    out.results["gram"] = [(w, out.attempt(f"gram {w}", _gram, module, w))
                           for w in inputs["words"]]
    for label, order, engine, pbw, roots in inputs["sweeps"]:
        out.results[label] = [
            (alpha, out.attempt(f"{label} {alpha}", _resolve, alpha, order, engine, pbw))
            for alpha in roots]
    return out


def counts_gram_resolve(outcome: Outcome) -> dict:
    slices = [len(r[0]) if r else -1 for _, r in outcome.results["gram"]]
    summands = [[len(r[0].terms[d]) for d in sorted(r[0].terms)] if r else None
                for label, rows in outcome.results.items() if label != "gram"
                for _, r in rows]
    return {"gram_slice_sizes": slices,
            "summands_total": sum(sum(s) for s in summands if s),
            "summands_digest": _digest(summands)}


WORKLOADS = {
    "pbw-orders": (build_pbw_orders, run_pbw, counts_pbw),
    "pbw-e8": (build_pbw_e8, run_pbw, counts_pbw),
    "canonical-b3": (build_canonical, run_canonical, counts_canonical),
    "gram-resolve": (build_gram_resolve, run_gram_resolve, counts_gram_resolve),
}


def work_counts(name: str, outcome: Outcome, layer_counts: dict) -> dict:
    """The counts the determinism guard compares between rounds."""
    counts = {"attempted": outcome.attempted, "failed": outcome.failed}
    counts.update(WORKLOADS[name][2](outcome))
    counts.update(layer_counts)
    return counts
