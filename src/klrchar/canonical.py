"""The dual canonical basis via the correction algorithm.

Starting from the dual PBW character r*_lambda, the Kostant partitions
mu < lambda are scanned once from the top of the display order, a linear
extension of the KP order.  Where the coefficient at the distinguished word
i_mu is not bar-invariant, the unique multiple c(q) in qZ[q] of b*_mu that
cancels its bar-failure is subtracted.  b*_mu vanishes at i_nu unless
nu <= mu, so no coefficient fixed earlier moves; the result is checked to be
bar-invariant at every i_mu before it is returned.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .convex import ConvexOrder
from .kostant import KP, kostant_partitions, kp_less, kp_scalars, kp_sort_key, sum_weight
from .laurent import ExactDivisionError, LaurentPoly
from .pbw import PBWCharacters
from .shuffle import ShuffleElement, parse_word, render_word, sh_add, sh_scale, sh_to_json


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
                 cache_dir: str | Path | None = None):
        self.order = order
        self.rs = order.rs
        self.pbw = pbw if pbw is not None else PBWCharacters(order)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._table: dict[KP, ShuffleElement] = {}
        self._weights_done: set[tuple] = set()
        if self.cache_dir:
            self._load_cache()

    # -- public ------------------------------------------------------------

    def char(self, lam: KP) -> ShuffleElement:
        hit = self._table.get(lam)
        if hit is not None:
            return hit
        self.compute_weight(sum_weight(lam, self.rs))
        return self._table[lam]

    def compute_weight(self, weight) -> list[KP]:
        """Compute (and cache) the table for every KP of the given weight.

        Returns the partitions in the deterministic display order.
        """
        weight = tuple(weight)
        # the rank sequences in lexicographic order extend the KP order:
        # kp_less compares the first differing part by the same rank
        kps = sorted(kostant_partitions(weight, self.order),
                     key=lambda l: kp_sort_key(l, self.order))
        if weight in self._weights_done:
            return kps
        fresh = False
        for lam in kps:
            if lam not in self._table:
                self._table[lam] = self._leclerc(lam, kps)
                fresh = True
        self._weights_done.add(weight)
        if fresh and self.cache_dir:
            self._save_cache()
        return kps

    # -- the algorithm -------------------------------------------------------

    def _leclerc(self, lam: KP, kps: list[KP]) -> ShuffleElement:
        """b*_lam from r*_lam, given b*_mu for every mu < lam in kps (sorted)."""
        chi = self.pbw.proper_standard(lam)
        below = [(mu, kp_scalars(mu, self.order)) for mu in kps
                 if kp_less(mu, lam, self.order)]
        for mu, (_, _, kappa, word) in reversed(below):
            a = chi.get(word)
            if a is not None and not a.is_bar_invariant():
                chi = sh_add(chi, sh_scale(self._table[mu], -correction(a, kappa)))
        for mu, (_, _, _, word) in below:
            a = chi.get(word)
            if a is not None and not a.is_bar_invariant():
                raise CorrectionError(
                    f"order {self.order.label}: b*_{lam} is not bar-invariant at "
                    f"i_mu = {render_word(word)} of mu = {mu}: {a}")
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

