"""The dual canonical basis via the correction algorithm.

b*_lambda is the dual PBW character E*_lambda minus multiples c_mu(q) in
qZ[q] of the b*_mu, mu < lambda, chosen so that its coefficients at the
distinguished words i_mu are bar-invariant.  Only those coefficients are
read, so the correction runs on the vector vec[nu] = E*_lambda[i_nu] over the
nu < lambda.  The mu are scanned once from the top of the display order, a
linear extension of the KP order.  Where vec[mu] is not bar-invariant,
c_mu = correction(vec[mu], kappa_mu), and c_mu b*_mu[i_kappa] is subtracted
from vec[kappa] for every kappa at or below mu in that order.  b*_mu vanishes
at i_nu unless nu <= mu, so no entry fixed earlier moves.  The character
E*_lambda - sum c_mu b*_mu is then assembled once and checked at every i_mu
to equal the vector and to be bar-invariant.

E*_lambda arrives packed (shuffle.Packed), and the correction decodes it at
the words i_nu alone.  The assembly (shuffle.sh_sub_scaled) subtracts each
c_mu b*_mu packed, one integer multiply-add per word of b*_mu, at a width
that holds the bound |E*_lambda|_1 + sum |c_mu|_1 max|b*_mu| on every
coefficient of the result; only the words that survive become Laurent
polynomials.  compute_weight keeps the packed b*_mu while it runs, for the
weight's later partitions.

A table holds one object per distinct word and coefficient.  The words of
its characters come from the word-pair memo, which shares them
(shuffle._memo_pair_shuffle), and it maps each stored coefficient through
one dict kept for its life.  A table drops the root system's word-pair
memo when it finishes a weight (shuffle.drop_pair_memo).

The on-disk cache is streamed: a header line, then one line per partition,
so neither writing nor reading it builds the whole document.  Reading
shares words and coefficients as the computation does, and treats a file
with a value that no table writes as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .convex import ConvexOrder, Word
from .kostant import KP, check_kp, kostant_partitions, kp_less, kp_scalars, sum_weight
from .laurent import ExactDivisionError, LaurentPoly
from .pbw import PBWCharacters
from .shuffle import ShuffleElement, drop_pair_memo, render_word, sh_sub_scaled


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
        # each stored coefficient, one object per value
        self._coeffs: dict[LaurentPoly, LaurentPoly] = {}
        if self.cache_dir:
            self._load_cache()

    # -- public ------------------------------------------------------------

    def char(self, lam: KP) -> ShuffleElement:
        hit = self._table.get(lam)
        if hit is not None:
            return hit
        try:
            check_kp(lam, self.order)
        except ValueError as e:
            raise ValueError(f"{lam} is not a Kostant partition of order "
                             f"{self.order.label}: {e}") from None
        self.compute_weight(sum_weight(lam, self.rs))
        return self._table[lam]

    def compute_weight(self, weight) -> list[KP]:
        """Compute (and cache) the table for every KP of the given weight.

        Returns the partitions in the deterministic display order.
        """
        kps = kostant_partitions(weight, self.order)
        todo = [lam for lam in kps if lam not in self._table]
        if todo:
            scalars = {mu: kp_scalars(mu, self.order) for mu in kps}
            # the packed b*_mu, for the weight's later partitions
            packed: dict = {}
            share = self._coeffs.setdefault
            for lam in todo:
                below = [(mu, scalars[mu][2], scalars[mu][3]) for mu in kps
                         if kp_less(mu, lam, self.order)]
                ch = self._leclerc(lam, below, packed)
                self._table[lam] = {w: share(c, c) for w, c in ch.items()}
            drop_pair_memo(self.rs)
            if self.cache_dir:
                self._save_cache()
        return kps

    # -- the algorithm -------------------------------------------------------

    def _leclerc(self, lam: KP, below: list[tuple[KP, LaurentPoly, Word]],
                 packed: dict) -> ShuffleElement:
        """b*_lam from E*_lam, given b*_mu for every mu < lam.

        below holds (mu, kappa_mu, i_mu) for the mu < lam in display order;
        packed keeps the packed b*_mu under mu (shuffle.sh_sub_scaled).
        """
        chi = self.pbw.proper_standard(lam)
        # only the words i_nu of the packed E*_lam are decoded here
        vec = [chi.get(word, LaurentPoly.zero()) for _, _, word in below]
        terms = []
        for j in range(len(below) - 1, -1, -1):
            if vec[j].is_bar_invariant():
                continue
            mu, kappa, _ = below[j]
            c = correction(vec[j], kappa)
            b_mu = self._table[mu]
            for k in range(j + 1):
                coeff = b_mu.get(below[k][2])
                if coeff is not None:
                    vec[k] = vec[k] - c * coeff
            terms.append((mu, b_mu, c))
        out = sh_sub_scaled(chi, terms, packed)
        for (mu, _, word), v in zip(below, vec):
            a = out.get(word, LaurentPoly.zero())
            if a != v or not a.is_bar_invariant():
                problem = (f"is {a}, but the corrected vector has {v}" if a != v
                           else f"is not bar-invariant: {a}")
                raise CorrectionError(
                    f"order {self.order.label}: b*_{lam} at i_mu = {render_word(word)} "
                    f"of mu = {mu} {problem}")
        return out

    # -- persistent cache ----------------------------------------------------

    def _cache_path(self) -> Path:
        fp = hashlib.sha256(self.order.fingerprint().encode()).hexdigest()[:16]
        name = f"canonical-{self.rs.key()}-{fp}.json"
        return self.cache_dir / name

    def _load_cache(self):
        """Fill the table from the cache file; an unreadable or corrupt file is a miss.

        Corrupt means a word whose weight is not its partition's, or a
        coefficient that is zero, repeats an exponent, or holds an exponent
        or a coefficient that is not an int.  Equal words are read into one
        tuple, and equal coefficients into the table's one object.
        """
        path = self._cache_path()
        if not path.exists():
            return
        table = {}
        words: dict[Word, Word] = {}
        coeffs: dict[tuple, LaurentPoly] = {}  # a flat coefficient -> its object
        share = self._coeffs.setdefault
        try:
            with path.open() as fh:
                head = json.loads(fh.readline())
                if head.get("schema") != 2 or head.get("order") != self.order.fingerprint():
                    return
                for line in fh:
                    kp, stored, flats = json.loads(line)
                    lam = tuple(tuple(part) for part in kp)
                    # the partition's weight as its sorted letters; word_weight
                    # would index by label and count a label 0 as the last node
                    letters = sorted(i + 1 for part in lam for i, n in enumerate(part)
                                     for _ in range(n))
                    ch = table[lam] = {}
                    for w, flat in zip(stored, flats, strict=True):
                        w = tuple(w)
                        if sorted(w) != letters:
                            return
                        flat = tuple(flat)
                        c = coeffs.get(flat)
                        if c is None:
                            c = LaurentPoly(dict(zip(flat[::2], flat[1::2], strict=True)))
                            if not (c and 2 * len(c.c) == len(flat) and 0 not in flat[1::2]
                                    and all(type(x) is int for x in flat)):
                                return
                            c = coeffs[flat] = share(c, c)
                        ch[words.setdefault(w, w)] = c
        except (OSError, ValueError, TypeError, AttributeError):
            return
        self._table.update(table)

    def _save_cache(self):
        """Write the table as a header line, then one line per partition.

        A line is [kp, words, coeffs]: the words as lists of labels, and for
        each word its coefficient as a flat [exponent, coefficient, ...] list.
        """
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        head = {"schema": 2, "type": self.rs.cartan_type.family,
                "rank": self.rs.rank, "order": self.order.fingerprint()}
        # a reader never sees a half-written file
        path = self._cache_path()
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(head) + "\n")
                for lam in sorted(self._table, key=lambda l: (len(l), l)):
                    ch = self._table[lam]
                    words = sorted(ch)
                    coeffs = [[x for term in sorted(ch[w].c.items()) for x in term]
                              for w in words]
                    fh.write(json.dumps([lam, words, coeffs]) + "\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
