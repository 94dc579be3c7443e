import functools
import itertools
import json
import random
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klrchar import tables
from klrchar.canonical import CanonicalTable, CorrectionError, correction
from klrchar.cartan import CartanType, RootSystem
from klrchar.convex import lyndon_order, order_from_reduced_word, random_reduced_word
from klrchar.kostant import kostant_partitions, kp_less, kp_scalars, kp_sort_key
from klrchar.laurent import LaurentPoly
from klrchar.pbw import PBWCharacters
from klrchar.shuffle import sh_add, sh_eq, sh_scale, sh_sub


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


@functools.lru_cache(maxsize=None)
def lyndon(family, rank):
    return lyndon_order(RootSystem(CartanType(family, rank)))


@st.composite
def weights(draw):
    family, rank = draw(st.sampled_from([("A", 3), ("B", 3), ("G", 2), ("A", 11)]))
    letters = draw(st.lists(st.integers(1, rank), min_size=1, max_size=4))
    return family, rank, tuple(letters.count(i) for i in range(1, rank + 1))


# derandomized, with no example database, so every run draws the same examples
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(weights(), min_size=1, max_size=3))
@example([("A", 11, (0,) * 9 + (1, 0))])
@example([("A", 11, (0,) * 9 + (1, 1)), ("A", 11, (0,) * 10 + (1,))])
def test_cache_round_trip_property(drawn):
    # one table per type, filled with its drawn weights and saved, then
    # reloaded by a table that cannot compute
    with tempfile.TemporaryDirectory() as cache_dir:
        for family, rank in {(f, r) for f, r, _ in drawn}:
            order = lyndon(family, rank)
            saved = CanonicalTable(order, cache_dir=cache_dir)
            for f, r, weight in drawn:
                if (f, r) == (family, rank):
                    saved.compute_weight(weight)
            reloaded = CanonicalTable(order, pbw=RefusingPBW(), cache_dir=cache_dir)
            assert reloaded._table.keys() == saved._table.keys()
            for lam, ch in saved._table.items():
                assert sh_eq(reloaded.char(lam), ch), (family, rank, lam)


def test_misread_word_makes_the_cache_a_miss(tmp_path):
    # a stored word whose length is not its partition's height: the
    # one-letter word (10,) stored as [1, 0]
    rs = RootSystem(CartanType("A", 10))
    o = lyndon_order(rs)
    weight = (0,) * 9 + (1,)
    saved = CanonicalTable(o, cache_dir=tmp_path)
    kps = saved.compute_weight(weight)
    path = saved._cache_path()
    assert "[[10]]" in path.read_text()
    path.write_text(path.read_text().replace("[[10]]", "[[1, 0]]"))
    table = CanonicalTable(o, cache_dir=tmp_path)
    assert table._table == {}
    assert table.char(kps[0]) == {(10,): LaurentPoly.one()}


def test_schema_one_cache_is_a_miss_and_rewritten(tmp_path):
    # the earlier format: one document with rendered words and no schema key
    rs = RootSystem(CartanType("A", 10))
    o = lyndon_order(rs)
    lam = ((0,) * 9 + (1,),)
    path = CanonicalTable(o, cache_dir=tmp_path)._cache_path()
    path.write_text(json.dumps({
        "entries": [{"character": [{"coeff": {"0": 1}, "word": "10,"}],
                     "kp": [list(lam[0])]}],
        "order": o.fingerprint(), "rank": 10, "type": "A"}, sort_keys=True))
    table = CanonicalTable(o, cache_dir=tmp_path)
    assert table._table == {}
    assert table.char(lam) == {(10,): LaurentPoly.one()}
    assert json.loads(path.read_text().splitlines()[0])["schema"] == 2
    reloaded = CanonicalTable(o, pbw=RefusingPBW(), cache_dir=tmp_path)
    assert reloaded.char(lam) == {(10,): LaurentPoly.one()}


def test_unreadable_cache_is_a_miss(tmp_path):
    rs = RootSystem(CartanType("G", 2))
    o = lyndon_order(rs)
    saved = CanonicalTable(o, cache_dir=tmp_path)
    saved.compute_weight((2, 1))
    path = saved._cache_path()
    head, first, _ = path.read_text().split("\n", 2)
    # cut off mid-line, and a whole line under another schema's header
    cut = head + "\n" + first[:len(first) // 2]
    other = head.replace('"schema": 2', '"schema": 3') + "\n" + first + "\n"
    assert other != head + "\n" + first + "\n"
    for text in ("{", "[]", json.dumps({"order": o.fingerprint(),
                                        "entries": [{"kp": [[1, 0]]}]}), cut, other):
        path.write_text(text)
        table = CanonicalTable(o, cache_dir=tmp_path)
        assert table._table == {}
        assert table.char(((1, 1),))


def test_char_of_a_non_kostant_partition_is_refused():
    rs = RootSystem(CartanType("A", 2))
    table = CanonicalTable(lyndon_order(rs))
    # parts out of order, and a part that is no root of A2
    for lam in (((1, 0), (0, 1)), ((1, 1, 0),)):
        with pytest.raises(ValueError, match=rf"{re.escape(str(lam))} is not a "
                                             r"Kostant partition of order lyndon"):
            table.char(lam)
    assert table._table == {}
    assert table.pbw._table == {}


def test_pair_memo_lives_for_one_weight():
    ct = CartanType("B", 3)
    rs = RootSystem(ct)
    table = CanonicalTable(lyndon_order(rs))
    for weight in ((1, 2, 2), (1, 1, 2), (0, 2, 2)):
        table.pbw.proper_standard(((1, 1, 0), (0, 0, 1)))
        assert rs._shuffle_pair_cache
        kps = table.compute_weight(weight)
        assert rs._shuffle_pair_cache == {}
        fresh = CanonicalTable(lyndon_order(RootSystem(ct)))
        for lam in kps:
            assert sh_eq(table.char(lam), fresh.char(lam)), (weight, lam)


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


def below_of(lam, kps, o):
    """_leclerc's second argument: (mu, kappa_mu, i_mu) for the mu < lam."""
    return [(mu, *kp_scalars(mu, o)[2:]) for mu in kps if kp_less(mu, lam, o)]


def test_corrupted_lower_entry_is_reported():
    # b*_mu wrong at i_nu, nu above mu in the scan: the vector is corrected
    # only at and below mu, so the assembled b*_lam disagrees with it at i_nu
    rs = RootSystem(CartanType("G", 2))
    o = lyndon_order(rs)
    table = CanonicalTable(o)
    kps = table.compute_weight((3, 2))
    mu, nu, lam = ((3, 2),), ((1, 1), (2, 1)), ((0, 1), (2, 1), (1, 0))
    word = kp_scalars(nu, o)[3]
    table._table[mu] = sh_add(table._table[mu], {word: LaurentPoly.term(1, 1)})
    with pytest.raises(CorrectionError, match=r"order lyndon: .*\(0, 1\), \(2, 1\), "
                                              r"\(1, 0\).* i_mu = 12112 of mu = "
                                              r"\(\(1, 1\), \(2, 1\)\) is "):
        table._leclerc(lam, below_of(lam, kps, o))


def test_wrong_kappa_is_reported():
    # b*_mu at its own i_mu is 2 kappa_mu instead of kappa_mu: the vector
    # and the character agree there, and neither is bar-invariant
    rs = RootSystem(CartanType("G", 2))
    o = lyndon_order(rs)
    table = CanonicalTable(o)
    kps = table.compute_weight((3, 2))
    lam = ((0, 1), (2, 1), (1, 0))
    below = below_of(lam, kps, o)
    chi = table.pbw.proper_standard(lam)
    # the topmost mu whose coefficient needs a correction
    mu, kappa, word = next(entry for entry in reversed(below)
                           if not chi.get(entry[2], LaurentPoly.zero()).is_bar_invariant())
    table._table[mu] = dict(table._table[mu])
    table._table[mu][word] = kappa * 2
    with pytest.raises(CorrectionError, match=r"of mu = .* is not bar-invariant"):
        table._leclerc(lam, below)


def oracle_leclerc(lam, kps, order, pbw, table):
    """The whole-character loop: subtract c_mu b*_mu from all of chi each time."""
    chi = pbw.proper_standard(lam)
    below = [mu for mu in kps if kp_less(mu, lam, order)]
    for mu in reversed(below):
        _, _, kappa, word = kp_scalars(mu, order)
        a = chi.get(word)
        if a is not None and not a.is_bar_invariant():
            chi = sh_add(chi, sh_scale(table[mu], -correction(a, kappa)))
    return chi


def oracle_table(weight, order, pbw):
    kps = sorted(kostant_partitions(weight, order), key=lambda l: kp_sort_key(l, order))
    table = {}
    for lam in kps:
        table[lam] = oracle_leclerc(lam, kps, order, pbw, table)
    return table


def test_vector_correction_matches_whole_character_oracle():
    cases = 0
    for fam, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]:
        rs = RootSystem(CartanType(fam, rank))
        rng = random.Random(7)
        orders = [lyndon_order(rs)] + [
            order_from_reduced_word(random_reduced_word(rs, rng), rs) for _ in range(3)]
        weights = [w for w in itertools.product(range(6), repeat=rank) if 0 < sum(w) <= 5]
        if fam == "B":
            weights.append((1, 2, 2))
        for o in orders:
            pbw = PBWCharacters(o)
            table = CanonicalTable(o, pbw)
            for weight in weights:
                expected = oracle_table(weight, o, pbw)
                for lam in table.compute_weight(weight):
                    assert sh_eq(table.char(lam), expected[lam]), (fam, o.label, lam)
                    cases += 1
    assert cases > 1000


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
