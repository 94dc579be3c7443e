import itertools
import json
import random

import pytest

from klrchar import tables
from klrchar.canonical import CanonicalTable, CorrectionError, correction
from klrchar.cartan import CartanType, RootSystem
from klrchar.convex import lyndon_order, order_from_reduced_word, random_reduced_word
from klrchar.kostant import kostant_partitions, kp_less, kp_scalars, kp_sort_key
from klrchar.laurent import LaurentPoly
from klrchar.pbw import PBWCharacters
from klrchar.shuffle import sh_add, sh_eq, sh_sub


def test_correction_examples():
    assert correction(LaurentPoly.term(1, 1), LaurentPoly.one()) == LaurentPoly.term(1, 1)
    assert correction(LaurentPoly.qint(4), LaurentPoly.qint(2)) == LaurentPoly.zero()
    a = LaurentPoly({3: 1, 1: 1})
    c = correction(a, LaurentPoly.qint(2))
    assert c == LaurentPoly.term(1, 2)
    assert (a - c * LaurentPoly.qint(2)).is_bar_invariant()


def test_correction_failure_reported():
    with pytest.raises(CorrectionError):
        correction(LaurentPoly.term(1, 1), LaurentPoly.qint(2))


def test_g2_table_lines():
    rs = RootSystem(CartanType("G", 2))
    o = lyndon_order(rs)
    table = CanonicalTable(o)
    for parts, expr in tables.G2_CANONICAL_TABLE:
        lam = tuple(tuple(p) for p in parts)
        assert sh_eq(table.char(lam), tables.parse_bracket_expr(expr, rs.d))


def test_single_root_unchanged():
    rs = RootSystem(CartanType("B", 3))
    o = lyndon_order(rs)
    pbw = PBWCharacters(o)
    table = CanonicalTable(o, pbw)
    for alpha in rs.positive_roots:
        assert sh_eq(table.char((alpha,)), pbw.dual_root(alpha))


def test_bar_invariance_and_word_coefficients():
    for fam, rank in [("A", 3), ("B", 3), ("G", 2)]:
        rs = RootSystem(CartanType(fam, rank))
        o = lyndon_order(rs)
        pbw = PBWCharacters(o)
        table = CanonicalTable(o, pbw)
        for alpha in rs.positive_roots:
            if sum(alpha) > 5:
                continue
            kps = table.compute_weight(alpha)
            for lam in kps:
                ch = table.char(lam)
                _, _, kappa, word = kp_scalars(lam, o)
                assert ch.get(word) == kappa, (fam, lam)
                for mu in kps:
                    w_mu = kp_scalars(mu, o)[3]
                    coeff = ch.get(w_mu)
                    if coeff is not None:
                        assert coeff.is_bar_invariant(), (fam, lam, mu)
                    if not (mu == lam or kp_less(mu, lam, o)):
                        assert coeff is None, (fam, lam, mu)


def test_unitriangular_over_dual_pbw():
    # solve b* = sum c_mu r*_mu through the distinguished words; the
    # coefficients must be 1 at lambda and in qZ[q] strictly below
    for fam, rank in [("A", 3), ("G", 2)]:
        rs = RootSystem(CartanType(fam, rank))
        o = lyndon_order(rs)
        pbw = PBWCharacters(o)
        table = CanonicalTable(o, pbw)
        for alpha in rs.positive_roots:
            kps = table.compute_weight(alpha)
            for lam in kps:
                residue = dict(table.char(lam))
                coeffs = {}
                # peel maximal partitions first
                remaining = sorted(kps, key=lambda l: kp_sort_key(l, o), reverse=True)
                guard = 0
                while True:
                    guard += 1
                    assert guard < 100
                    target = None
                    for mu in remaining:
                        w = kp_scalars(mu, o)[3]
                        if residue.get(w):
                            target = mu
                            break
                    if target is None:
                        break
                    w = kp_scalars(target, o)[3]
                    kappa = kp_scalars(target, o)[2]
                    c = residue[w].exact_div(kappa)
                    coeffs[target] = c
                    residue = sh_sub(residue, {ww: cc * c for ww, cc in
                                               pbw.proper_standard(target).items()})
                assert not residue
                assert coeffs.get(lam) == LaurentPoly.one()
                for mu, c in coeffs.items():
                    if mu == lam:
                        continue
                    assert kp_less(mu, lam, o)
                    assert all(e > 0 for e in c.c), (lam, mu, c)


def test_idempotence_no_corrections_needed():
    rs = RootSystem(CartanType("G", 2))
    o = lyndon_order(rs)
    table = CanonicalTable(o)
    for alpha in rs.positive_roots:
        for lam in table.compute_weight(alpha):
            ch = table.char(lam)
            for mu in kostant_partitions(alpha, o):
                w = kp_scalars(mu, o)[3]
                if w in ch:
                    assert ch[w].is_bar_invariant()


def test_cache_roundtrip(tmp_path):
    rs = RootSystem(CartanType("G", 2))
    o = lyndon_order(rs)
    t1 = CanonicalTable(o, cache_dir=tmp_path)
    t1.compute_weight((3, 2))
    files = list(tmp_path.glob("canonical-*.json"))
    assert files
    t2 = CanonicalTable(o, cache_dir=tmp_path)
    for lam in t1.compute_weight((3, 2)):
        assert lam in t2._table
        assert sh_eq(t2.char(lam), t1.char(lam))


class RefusingPBW:
    """A PBW table that refuses to compute: a reloaded table must not need it."""

    def __getattr__(self, name):
        raise RuntimeError(f"reloaded table tried to compute ({name})")


def test_cache_roundtrip_labels_ten_and_up(tmp_path):
    # the stored words of A10 at a9 + a10 are written "9,10" and "10,9"
    rs = RootSystem(CartanType("A", 10))
    o = lyndon_order(rs)
    weight = (0,) * 8 + (1, 1)
    t1 = CanonicalTable(o, cache_dir=tmp_path)
    kps = t1.compute_weight(weight)
    assert any(max(w) >= 10 for lam in kps for w in t1.char(lam))
    t2 = CanonicalTable(o, pbw=RefusingPBW(), cache_dir=tmp_path)
    for lam in kps:
        assert sh_eq(t2.char(lam), t1.char(lam))
    # the file is replaced whole, with no temporary file left beside it
    assert [f.name for f in tmp_path.iterdir()] == [t1._cache_path().name]


def test_unreadable_cache_is_a_miss(tmp_path):
    rs = RootSystem(CartanType("G", 2))
    o = lyndon_order(rs)
    path = CanonicalTable(o, cache_dir=tmp_path)._cache_path()
    for text in ("{", "[]", json.dumps({"order": o.fingerprint(),
                                        "entries": [{"kp": [[1, 0]]}]})):
        path.write_text(text)
        table = CanonicalTable(o, cache_dir=tmp_path)
        assert table._table == {}
        assert table.char(((1, 1),))


def test_sort_order_extends_kp_order():
    # the one correction pass relies on it: every mu < lambda sorts earlier
    for fam, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]:
        rs = RootSystem(CartanType(fam, rank))
        rng = random.Random(11)
        orders = [lyndon_order(rs)] + [
            order_from_reduced_word(random_reduced_word(rs, rng), rs) for _ in range(3)]
        weights = [w for w in itertools.product(range(6), repeat=rank) if 0 < sum(w) <= 5]
        for o in orders:
            for weight in weights:
                kps = sorted(kostant_partitions(weight, o), key=lambda l: kp_sort_key(l, o))
                for i, lam in enumerate(kps):
                    for later in kps[i + 1:]:
                        assert not kp_less(later, lam, o), (fam, o.label, later, lam)


def test_corrupted_lower_entry_is_reported():
    # b*_mu wrong at i_nu, nu above mu in the scan: subtracting a multiple of
    # b*_mu breaks the coefficient of b*_lam at i_nu after it was fixed
    rs = RootSystem(CartanType("G", 2))
    o = lyndon_order(rs)
    table = CanonicalTable(o)
    kps = table.compute_weight((3, 2))
    mu, nu, lam = ((3, 2),), ((1, 1), (2, 1)), ((0, 1), (2, 1), (1, 0))
    word = kp_scalars(nu, o)[3]
    table._table[mu] = sh_add(table._table[mu], {word: LaurentPoly.term(1, 1)})
    with pytest.raises(CorrectionError, match=r"order lyndon: .*\(0, 1\), \(2, 1\), "
                                              r"\(1, 0\).* i_mu = 12112 of mu = "
                                              r"\(\(1, 1\), \(2, 1\)\)"):
        table._leclerc(lam, kps)


def test_works_for_word_orderings():
    rng = random.Random(5)
    rs = RootSystem(CartanType("B", 3))
    for _ in range(3):
        o = order_from_reduced_word(random_reduced_word(rs, rng), rs)
        table = CanonicalTable(o)
        for alpha in rs.positive_roots:
            if sum(alpha) <= 4:
                for lam in table.compute_weight(alpha):
                    ch = table.char(lam)
                    _, _, kappa, word = kp_scalars(lam, o)
                    assert ch.get(word) == kappa


def test_entries_globally_bar_invariant():
    from klrchar.shuffle import is_bar_invariant

    for fam, rank in [("A", 3), ("B", 3), ("G", 2)]:
        rs = RootSystem(CartanType(fam, rank))
        o = lyndon_order(rs)
        table = CanonicalTable(o)
        for alpha in rs.positive_roots:
            if sum(alpha) > 5:
                continue
            for lam in table.compute_weight(alpha):
                assert is_bar_invariant(table.char(lam)), (fam, lam)
