"""Per-layer tracing of klrchar from outside the package.

The tracer replaces public functions and methods of each computing module
with timing wrappers for the length of one traced round.  Nothing under
``src/klrchar`` knows about it.

* A function imported by name (``from .shuffle import shuffle``) lives on in
  every importing module, so a wrapper replaces the name wherever the same
  object is bound, not only in the defining module.
* Every wrapped call is a frame on one stack.  A frame's self time is its
  duration minus the durations of the wrapped calls made inside it, which
  is what the recursive ``dual_root``, ``tau_times_perm`` and
  ``word_to_normal`` need.  Unwrapped helpers count towards the nearest
  wrapped caller.
* Laurent calls are also aggregated per calling layer, as
  ``canonical-b3`` alone makes about half a million products.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter

# layer -> (module, class or None, attribute names)
WRAPPED = {
    "laurent": [("klrchar.laurent", "LaurentPoly",
                 ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                  "exact_div", "bar"))],
    "shuffle": [("klrchar.shuffle", None,
                 ("shuffle", "_pair_shuffle", "sh_add", "sh_scale", "sh_sub",
                  "bar", "restrict_character"))],
    "pbw": [("klrchar.pbw", "PBWCharacters",
             ("dual_root", "_solve", "proper_standard")),
            ("klrchar.pbw", None,
             ("char_projective", "standard_divisor", "dim_standard"))],
    "canonical": [("klrchar.canonical", "CanonicalTable",
                   ("compute_weight", "char", "_leclerc", "_load_cache",
                    "_save_cache")),
                  ("klrchar.canonical", None, ("correction",))],
    "klr": [("klrchar.klr", "KLR",
             ("lmul_tau", "tau_times_perm", "word_to_normal", "front_elem",
              "multiply", "apply_tau_word", "lmul_x", "lmul_e", "transpose"))],
    "modules": [("klrchar.modules", "ProperStandard",
                 ("act_tau", "act_x", "act_word", "act_transposed_word",
                  "slice_basis", "pair_basis", "pair_cyclicward",
                  "gram_matrix")),
                ("klrchar.modules", None, ("rank_over",))],
    "resolutions": [("klrchar.resolutions", None,
                     ("resolution", "verify_complex", "euler_matches",
                      "euler_character", "expected_euler"))],
}

# klr methods whose result is an element; their sizes give klr.max_terms
KLR_ELEMENT_RESULTS = {"lmul_tau", "tau_times_perm", "word_to_normal",
                       "multiply", "apply_tau_word"}


def replace_everywhere(original, replacement) -> list:
    """Bind ``replacement`` wherever a klrchar module binds ``original``.

    Returns the (module, name) pairs changed, for ``restore``.
    """
    changed = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "klrchar" or name.startswith("klrchar.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


class CallCounter:
    """Counts calls of one module-level function; used in untraced rounds."""

    def __init__(self, module: str, name: str):
        self.calls = 0
        self.original = getattr(sys.modules[module], name)
        original = self.original

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        self._changed = replace_everywhere(original, counted)

    def restore(self):
        for mod, attr in self._changed:
            setattr(mod, attr, self.original)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()
        self.laurent_by_caller = Counter()
        self.laurent_s_by_caller = Counter()
        self._stack: list[list] = []
        self._active = Counter()
        self._undo: list = []
        # counts that need a look at arguments or results
        self.fp_lookups = 0
        self.pair_computed = 0
        self.interleavings = 0
        self.pair_terms = 0
        self.perms = 0
        self.cache_bytes = 0
        self.max_terms = 0
        self._root_systems = {}
        self._engines = {}

    # -- installing ------------------------------------------------------------

    def install(self) -> "Tracer":
        for layer, entries in WRAPPED.items():
            for module, cls_name, names in entries:
                mod = sys.modules[module]
                owner = getattr(mod, cls_name) if cls_name else None
                for name in names:
                    if owner is not None:
                        original = owner.__dict__[name]
                        setattr(owner, name, self._wrap(layer, name, original))
                        self._undo.append((owner, name, original, None))
                    else:
                        original = getattr(mod, name)
                        wrapper = self._wrap(layer, name, original)
                        self._undo.append((None, name, original,
                                           replace_everywhere(original, wrapper)))
        return self

    def uninstall(self):
        for owner, name, original, changed in reversed(self._undo):
            if owner is not None:
                setattr(owner, name, original)
            else:
                for mod, attr in changed:
                    setattr(mod, attr, original)
        self._undo.clear()

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        pre, post = self._hooks(layer, name)
        stack = self._stack
        active = self._active
        calls = self.calls
        self_s = self.self_s
        incl_s = self.incl_s
        perf = time.perf_counter
        laurent = layer == "laurent"

        def wrapper(*args, **kwargs):
            calls[key] += 1
            state = pre(args) if pre is not None else None
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            outermost = not active[key]
            active[key] += 1
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                active[key] -= 1
                self_s[key] += dt - frame[1]
                if outermost:
                    incl_s[key] += dt
                if parent is not None:
                    parent[1] += dt
                if laurent:
                    caller = parent[0] if parent is not None else "workload"
                    self.laurent_by_caller[caller] += 1
                    self.laurent_s_by_caller[caller] += dt
            if post is not None:
                post(args, out, state)
            return out

        return wrapper

    def _hooks(self, layer: str, name: str):
        """Argument and result probes for the counts that need them."""
        if layer == "pbw" and name == "dual_root":
            def pre(args):
                table, alpha = args[0], args[1]
                if sum(alpha) > 1 and alpha not in getattr(table, "_table", {}):
                    self.fp_lookups += 1
            return pre, None
        if layer == "pbw" and name == "char_projective":
            def pre(args):
                self.perms += math.factorial(len(args[0]))
            return pre, None
        if layer == "shuffle" and name == "_pair_shuffle":
            def pre(args):
                i, j, rs = args[0], args[1], args[2]
                self._root_systems[id(rs)] = rs
                cache = getattr(rs, "_shuffle_pair_cache", None)
                return cache is None or (i, j) not in cache

            def post(args, out, computed):
                if computed:
                    self.pair_computed += 1
                    self.interleavings += math.comb(len(args[0]) + len(args[1]),
                                                    len(args[0]))
                    self.pair_terms += sum(len(e) for e in out.values())
            return pre, post
        if layer == "canonical" and name == "_save_cache":
            def post(args, out, state):
                self.cache_bytes += os.path.getsize(args[0]._cache_path())
            return None, post
        if layer == "klr" and name in KLR_ELEMENT_RESULTS:
            def post(args, out, state):
                self._engines[id(args[0])] = args[0]
                if len(out) > self.max_terms:
                    self.max_terms = len(out)
            return None, post
        return None, None

    # -- results -------------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def metrics(self) -> dict:
        c = self.calls
        solves = c["pbw._solve"]
        lookups = self.fp_lookups
        return {
            "laurent.mul_calls": c["laurent.__mul__"] + c["laurent.__rmul__"],
            "laurent.exact_div_calls": c["laurent.exact_div"],
            "laurent.self_s": self.layer_self_s("laurent"),
            "shuffle.element_calls": c["shuffle.shuffle"],
            "shuffle.pair_computed": self.pair_computed,
            "shuffle.interleavings": self.interleavings,
            "shuffle.merge_ratio": (self.pair_terms / self.interleavings
                                    if self.interleavings else 0.0),
            "shuffle.pair_cache_entries": sum(
                len(getattr(rs, "_shuffle_pair_cache", ()))
                for rs in self._root_systems.values()),
            "shuffle.self_s": self.layer_self_s("shuffle"),
            "pbw.solves": solves,
            "pbw.fingerprint_hit_ratio": (lookups - solves) / lookups if lookups else 0.0,
            "pbw.solve_self_s": self.self_s["pbw._solve"],
            "pbw.proper_standard_s": self.incl_s["pbw.proper_standard"],
            "pbw.char_projective_perms": self.perms,
            "pbw.char_projective_s": self.incl_s["pbw.char_projective"],
            "canonical.rounds": c["canonical.correction"],
            "canonical.correction_self_s": (self.self_s["canonical._leclerc"]
                                            + self.self_s["canonical.correction"]),
            "canonical.cache_write_s": self.incl_s["canonical._save_cache"],
            "canonical.cache_read_s": self.incl_s["canonical._load_cache"],
            "canonical.cache_bytes": self.cache_bytes,
            "klr.lmul_tau_calls": c["klr.lmul_tau"],
            "klr.memo_entries": sum(
                len(getattr(e, "_ttp", ())) + len(getattr(e, "_w2n", ()))
                for e in self._engines.values()),
            "klr.max_terms": self.max_terms,
            "klr.self_s": self.layer_self_s("klr"),
            "modules.act_tau_calls": c["modules.act_tau"],
            "modules.self_s": self.layer_self_s("modules"),
            "resolutions.d2_s": self.incl_s["resolutions.verify_complex"],
            "resolutions.euler_s": self.incl_s["resolutions.euler_matches"],
        }

    def raw(self) -> dict:
        """The aggregated counters behind the metrics, for the result file."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "laurent_calls_by_caller": dict(self.laurent_by_caller),
            "laurent_s_by_caller": dict(self.laurent_s_by_caller),
        }
