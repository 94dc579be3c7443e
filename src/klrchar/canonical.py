"""The dual canonical basis via the correction algorithm.

Starting from a dual PBW character, the bar-failure of the coefficient at
each distinguished word i_mu (mu running over smaller Kostant partitions,
scanned from the top of a linear extension) is cancelled by subtracting the
unique multiple c(q) in qZ[q] of the already-known character at mu.  The
result is bar-invariant at every inspected word.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .convex import ConvexOrder
from .kostant import KP, kostant_partitions, kp_less, kp_scalars, kp_sort_key
from .laurent import ExactDivisionError, LaurentPoly
from .pbw import PBWCharacters
from .shuffle import ShuffleElement, parse_word, sh_add, sh_scale, sh_to_json


class CorrectionError(ArithmeticError):
    pass


def correction(a: LaurentPoly, kappa: LaurentPoly) -> LaurentPoly:
    """The unique c(q) in qZ[q] with a - c*kappa bar-invariant.

    The antisymmetric part of a must be exactly divisible by kappa;
    offending data is reported otherwise.
    """
    asym = a - a.bar()
    if not asym:
        return LaurentPoly.zero()
    try:
        ratio = asym.exact_div(kappa)
    except ExactDivisionError as e:
        raise CorrectionError(
            f"no valid correction: ({asym}) is not divisible by ({kappa}): {e}"
        ) from e
    c = ratio.pos_part()
    if (c - c.bar()) != ratio:
        raise CorrectionError(f"correction quotient {ratio} is not antisymmetric")
    return c


class CanonicalTable:
    """Dual canonical characters for every Kostant partition of a weight."""

    def __init__(self, order: ConvexOrder, pbw: PBWCharacters | None = None,
                 cache_dir: str | Path | None = None, max_rounds_factor: int = 4):
        self.order = order
        self.rs = order.rs
        self.pbw = pbw if pbw is not None else PBWCharacters(order)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.max_rounds_factor = max_rounds_factor
        self._table: dict[KP, ShuffleElement] = {}
        self._weights_done: set[tuple] = set()
        if self.cache_dir:
            self._load_cache()

    # -- public ------------------------------------------------------------

    def char(self, lam: KP) -> ShuffleElement:
        hit = self._table.get(lam)
        if hit is not None:
            return hit
        from .kostant import sum_weight

        self.compute_weight(sum_weight(lam, self.rs))
        return self._table[lam]

    def compute_weight(self, weight) -> list[KP]:
        """Compute (and cache) the table for every KP of the given weight.

        Returns the partitions in the deterministic display order.
        """
        weight = tuple(weight)
        kps = sorted(kostant_partitions(weight, self.order),
                     key=lambda l: kp_sort_key(l, self.order))
        if weight in self._weights_done:
            return kps
        # linear extension of the KP order: process smaller lambdas first
        order_ext = _linear_extension(kps, self.order)
        fresh = False
        for lam in order_ext:
            if lam not in self._table:
                self._table[lam] = self._leclerc(lam, order_ext)
                fresh = True
        self._weights_done.add(weight)
        if fresh and self.cache_dir:
            self._save_cache()
        return kps

    # -- the algorithm -------------------------------------------------------

    def _leclerc(self, lam: KP, order_ext: list[KP]) -> ShuffleElement:
        chi = self.pbw.proper_standard(lam)
        below = [mu for mu in order_ext
                 if mu != lam and kp_less(mu, lam, self.order)]
        scalars = {mu: kp_scalars(mu, self.order) for mu in below}
        span = _degree_span(chi)
        max_rounds = self.max_rounds_factor * max(1, len(below)) * max(1, span)
        rounds = 0
        while True:
            target = None
            # scan a fixed linear extension from the top; the first
            # non-bar-invariant coefficient found belongs to a maximal mu
            for mu in reversed(below):
                a = chi.get(scalars[mu][3])
                if a is not None and not a.is_bar_invariant():
                    target = mu
                    break
            if target is None:
                break
            rounds += 1
            if rounds > max_rounds:
                raise CorrectionError(
                    f"correction loop exceeded {max_rounds} rounds at {lam}"
                )
            _, _, kappa, word = scalars[target]
            c = correction(chi[word], kappa)
            chi = sh_add(chi, sh_scale(self._table[target], -c))
        return chi

    # -- persistent cache ----------------------------------------------------

    def _cache_path(self) -> Path:
        fp = hashlib.sha256(self.order.fingerprint().encode()).hexdigest()[:16]
        name = f"canonical-{self.rs.key()}-{fp}.json"
        return self.cache_dir / name

    def _load_cache(self):
        """Fill the table from the cache file; an unreadable file is a miss."""
        path = self._cache_path()
        if not path.exists():
            return
        try:
            doc = json.loads(path.read_text())
            if doc.get("order") != self.order.fingerprint():
                return
            table = {
                tuple(tuple(part) for part in entry["kp"]): {
                    parse_word(item["word"]): LaurentPoly.from_json(item["coeff"])
                    for item in entry["character"]}
                for entry in doc.get("entries", [])}
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return
        self._table.update(table)

    def _save_cache(self):
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        entries = []
        for lam in sorted(self._table, key=lambda l: (len(l), l)):
            entries.append({
                "kp": [list(part) for part in lam],
                "character": sh_to_json(self._table[lam]),
            })
        doc = {
            "type": self.rs.cartan_type.family,
            "rank": self.rs.rank,
            "order": self.order.fingerprint(),
            "entries": entries,
        }
        # a reader never sees a half-written file
        path = self._cache_path()
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(doc, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def _linear_extension(kps: list[KP], order: ConvexOrder) -> list[KP]:
    """Topological sort of the KP poset, smallest first, deterministic."""
    kps = sorted(kps, key=lambda l: kp_sort_key(l, order))
    placed: list[KP] = []
    remaining = list(kps)
    while remaining:
        for lam in remaining:
            if not any(kp_less(mu, lam, order) for mu in remaining if mu != lam):
                placed.append(lam)
                remaining.remove(lam)
                break
        else:
            raise RuntimeError("cycle in KP order")
    return placed


def _degree_span(chi: ShuffleElement) -> int:
    lo, hi = 0, 0
    for c in chi.values():
        if c:
            lo = min(lo, c.min_exp())
            hi = max(hi, c.max_exp())
    return hi - lo + 1
