"""The benchmark's tracer wraps klrchar functions by name from outside.

`benchmark/tracer.py` is read here, never changed: a refactor that renames
a wrapped function or moves it off the call path the tracer counts on
fails these tests instead of breaking `benchmark/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from klrchar import CartanType, RootSystem, lyndon_order
from klrchar import canonical
from klrchar import klr as klr_mod
from klrchar import modules
from klrchar import pbw as pbw_mod
from klrchar import resolutions

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("klrchar_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    # sh_add, sh_scale and sh_sub among them: the canonical correction no
    # longer calls them, but they stay public for the tracer and as oracles
    for layer, entries in tracer.WRAPPED.items():
        for module_name, cls_name, names in entries:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            where = owner.__dict__ if cls_name else vars(module)
            for name in names:
                assert callable(where.get(name)), (layer, module_name, cls_name, name)


def test_wrapped_names_stay_on_their_call_paths(tracer):
    rs = RootSystem(CartanType("A", 3))
    order = lyndon_order(rs)
    # the tracer rebinds names inside klrchar, so call through the modules
    t = tracer.Tracer().install()
    try:
        pbw = pbw_mod.PBWCharacters(order)
        cx = resolutions.resolution((1, 1, 1), order)
        assert resolutions.euler_matches(cx, order, pbw, 8)
        # every A3 Lyndon solve has a one-letter factor, which the
        # q-commutator inserts without calling _pair_shuffle
        a3_pairs = t.calls["shuffle._pair_shuffle"]
        # the minimal pair (1,1) + (2,1) of G2's (3,2) has none
        g2 = RootSystem(CartanType("G", 2))
        pbw_mod.PBWCharacters(lyndon_order(g2)).dual_root((3, 2))
        solve_pairs = t.calls["shuffle._pair_shuffle"] - a3_pairs
        pbw_mod.dim_standard(((1, 1, 1),), pbw)
        # the exact Euler check no longer goes through char_projective
        pbw_mod.char_projective((1, 2, 3), rs)
        # the solve's one-pass q-commutator calls no element shuffle:
        # shuffle is reached through a two-part proper standard character
        assert t.calls["shuffle.shuffle"] == 0
        pbw.proper_standard(((0, 1, 0), (1, 0, 0)))
        # the correction runs on coefficient vectors and assembles each
        # character from packed ints in shuffle.sh_sub_scaled, without
        # sh_add or sh_scale
        calls = dict(t.calls)
        canonical.CanonicalTable(lyndon_order(RootSystem(CartanType("A", 2)))
                                 ).compute_weight((1, 1))
        for key in ("shuffle.sh_add", "shuffle.sh_scale"):
            assert t.calls[key] == calls.get(key, 0), key
    finally:
        t.uninstall()
    assert a3_pairs == 0
    assert solve_pairs > 0
    for key in ("pbw._solve", "pbw.char_projective", "pbw.dim_standard",
                "pbw.proper_standard", "resolutions.euler_matches",
                "resolutions.euler_character", "resolutions.expected_euler",
                "pbw.standard_divisor", "shuffle.shuffle", "shuffle._pair_shuffle",
                "canonical._leclerc", "canonical.correction"):
        assert t.calls[key] > 0, key
    metrics = t.metrics()
    assert metrics["shuffle.pair_computed"] > 0
    assert metrics["shuffle.pair_cache_entries"] > 0
    assert metrics["pbw.char_projective_perms"] > 0


def test_straightening_names_stay_on_the_gram_path(tracer):
    # klr.self_s and klr.max_terms are read from these wrappers, so the
    # straightening kernel must keep reaching them from a Gram matrix
    rs = RootSystem(CartanType("A", 3))
    t = tracer.Tracer().install()
    try:
        M = modules.ProperStandard(klr_mod.KLR(rs), lyndon_order(rs),
                                   ((0, 1, 0), (1, 1, 1), (1, 0, 0)))
        G = M.gram_matrix((1, 2, 1, 2, 3), 0)
    finally:
        t.uninstall()
    assert G == [[-1, 1], [1, -1]]
    for key in ("klr.tau_times_perm", "klr.word_to_normal", "klr.front_elem",
                "modules.act_tau"):
        assert t.calls[key] > 0, key
