"""Command line front end.

Every subcommand writes one deterministic JSON document to stdout (or to
--out) and a short human-readable table to stderr.  Failed checks exit
nonzero with a machine-readable error document.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import traceback
from functools import cache, partial
from pathlib import Path

from .canonical import CanonicalTable, replaced_whole
from .cartan import CartanType, RootSystem
from .convex import (ConvexOrder, good_lyndon_words, lyndon_order,
                     order_from_reduced_word)
from .klr import KLR
from .kostant import kostant_partitions, kp_scalars, sum_weight
from .laurent import LaurentPoly, factor_quantum, series
from .modules import MR_BOUND, ProperStandard, check_characteristic, rank_over
from .pbw import PBWCharacters, dim_formula
from .resolutions import euler_matches, resolution, verify_complex
from .shuffle import parse_word, render_word, sh_to_json, word_weight
from . import verify as verify_mod


def _parse_weight(text: str, rank: int):
    try:
        parts = tuple(int(t) for t in text.replace(";", ",").split(","))
    except ValueError:
        parts = ()
    if len(parts) != rank:
        raise ValueError(f"--alpha needs {rank} comma-separated coefficients")
    if min(parts) < 0:
        raise ValueError(f"--alpha needs non-negative coefficients, not {text}")
    return parts


def _parse_lambda(text: str, rank: int):
    try:
        out = tuple(tuple(int(t) for t in part.split(",")) for part in text.split(";"))
    except ValueError:
        out = ((),)
    if any(len(part) != rank for part in out):
        raise ValueError(f"--parts entries need {rank} coefficients")
    return out


def _parse_eps(text: str | None, rs: RootSystem):
    if not text:
        return None
    eps = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        # two one-digit labels (+12), or any two labels split by a colon (+9:10)
        m = re.fullmatch(r"([+-])(?:([1-9])([1-9])|([1-9]\d*):([1-9]\d*))", chunk)
        edge = tuple(int(t) for t in m.groups()[1:] if t) if m else ()
        if not edge or max(edge) > rs.rank:
            raise ValueError(f"--eps chunk {chunk!r} is not a sign and two node "
                             f"labels of {rs.cartan_type}, like +12 or +9:10")
        eps[edge] = 1 if m[1] == "+" else -1
    return eps


def _parse_word(text: str, option: str):
    try:
        return parse_word(text)
    except ValueError as e:
        raise ValueError(f"{option} {e}") from None


def _build_order(args, rs: RootSystem) -> ConvexOrder:
    if args.order == "lyndon":
        return lyndon_order(rs)
    return order_from_reduced_word(_parse_word(args.order, "--order"), rs)


def _emit(doc: dict, args, table: str):
    # a document holds only lists, dicts, strings, ints and bools, so it is
    # encoded straight into the stream; an --out file is replaced whole, but
    # a link or a device (/dev/stdout) is written in place
    path = Path(args.out)
    if not args.out:
        sink = contextlib.nullcontext(sys.stdout)
    elif path.is_symlink() or path.exists() and not path.is_file():
        sink = open(path, "w")
    else:
        sink = replaced_whole(path)
    with sink as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        # flushed here, so that a closed pipe raises inside main
        print(file=fh, flush=True)
    if table:
        print(table, file=sys.stderr)


def _fail(message: str, **extra) -> int:
    print(json.dumps({"error": message, **extra}, sort_keys=True))
    return 1


def _root_str(b) -> str:
    return "+".join(f"{c}a{i+1}" if c > 1 else f"a{i+1}"
                    for i, c in enumerate(b) if c) or "0"


def _factorer(rs: RootSystem):
    """factor_quantum with node labels, factoring each distinct coefficient once."""
    d_labels = {d: rs.d.index(d) + 1 for d in rs.d}  # the first node of each d
    return cache(partial(factor_quantum, d_labels=d_labels))


def _series_json(num: LaurentPoly, den: LaurentPoly, trunc: int) -> dict:
    return {"trunc": trunc, "coeff": LaurentPoly(series(num, den, trunc)).to_json()}


def _char_line(head: str, ch, factor) -> str:
    """A character's stderr line: each word after its coefficient, unless that is 1."""
    terms = ((factor(c), render_word(w)) for w, c in sorted(ch.items()))
    return f"{head} = " + " + ".join(w if f == "1" else f"{f} {w}" for f, w in terms)


# -- subcommands ---------------------------------------------------------------


def cmd_roots(args, rs: RootSystem) -> int:
    order = _build_order(args, rs)
    items = [
        {"root": list(b), "height": sum(b), "d": rs.d_root(b),
         "rank": order.rank_of[b]}
        for b in order.roots
    ]
    doc = {"type": str(rs.cartan_type), "count": len(items), "roots": items,
           "order": order.label}
    lines = [f"{order.rank_of[b]:>3}  {_root_str(b):<22} ht={sum(b)} d={rs.d_root(b)}"
             for b in order.roots]
    _emit(doc, args, "\n".join(lines))
    return 0


def cmd_orders(args, rs: RootSystem) -> int:
    order = _build_order(args, rs)
    doc = {"type": str(rs.cartan_type), "order": order.label,
           "roots": [list(b) for b in order.roots]}
    _emit(doc, args, " < ".join(_root_str(b) for b in order.roots))
    return 0


def cmd_lyndon(args, rs: RootSystem) -> int:
    words = good_lyndon_words(rs)
    rows = sorted((w, b) for b, w in words.items())
    doc = {"type": str(rs.cartan_type),
           "words": [{"word": render_word(w), "root": list(b)} for w, b in rows]}
    _emit(doc, args, "\n".join(f"{render_word(w):<30} {_root_str(b)}" for w, b in rows))
    return 0


def cmd_kp(args, rs: RootSystem) -> int:
    order = _build_order(args, rs)
    if not args.alpha:
        return _fail("kp needs --alpha")
    weight = _parse_weight(args.alpha, rs.rank)
    factor = _factorer(rs)
    items = []
    lines = []
    for lam in kostant_partitions(weight, order):
        fact, s, kappa, word = kp_scalars(lam, order)
        items.append({
            "parts": [list(p) for p in lam],
            "factorial": fact.to_json(),
            "s": s,
            "kappa": kappa.to_json(),
            "word": render_word(word),
        })
        lines.append(f"({', '.join(_root_str(p) for p in lam)}): "
                     f"word {render_word(word)}, "
                     f"s={s}, kappa={factor(kappa)}")
    doc = {"type": str(rs.cartan_type), "alpha": list(weight),
           "order": order.label, "count": len(items), "partitions": items}
    _emit(doc, args, "\n".join(lines))
    return 0


def cmd_pbw_char(args, rs: RootSystem) -> int:
    order = _build_order(args, rs)
    pbw = PBWCharacters(order)
    roots = order.roots
    if args.alpha:
        weight = _parse_weight(args.alpha, rs.rank)
        if weight not in rs.positive_set:
            return _fail(f"{weight} is not a positive root")
        roots = (weight,)
    factor = _factorer(rs)
    items = []
    lines = []
    for b in roots:
        ch = pbw.dual_root(b)
        items.append({"root": list(b), "character": sh_to_json(ch)})
        lines.append(_char_line(f"r*({_root_str(b)})", ch, factor))
    doc = {"type": str(rs.cartan_type), "order": order.label, "characters": items}
    _emit(doc, args, "\n".join(lines))
    return 0


def cmd_canonical(args, rs: RootSystem) -> int:
    order = _build_order(args, rs)
    table = CanonicalTable(order, cache_dir=args.cache_dir)
    weights = [_parse_weight(args.alpha, rs.rank)] if args.alpha else order.roots
    factor = _factorer(rs)
    items = []
    lines = []
    for weight in weights:
        for lam in table.compute_weight(weight):
            ch = table.char(lam)
            items.append({
                "weight": list(weight),
                "kp": [list(p) for p in lam],
                "character": sh_to_json(ch),
            })
            lines.append(_char_line(f"b*({', '.join(_root_str(p) for p in lam)})", ch, factor))
    doc = {"type": str(rs.cartan_type), "order": order.label, "entries": items}
    _emit(doc, args, "\n".join(lines))
    return 0


def cmd_dim_check(args, rs: RootSystem) -> int:
    if args.alpha and args.max_height is not None:
        return _fail("dim-check takes --alpha or --max-height, not both")
    if args.max_height is not None and args.max_height < 1:
        return _fail(f"--max-height must be at least 1, not {args.max_height}")
    if args.truncate < 0:
        return _fail(f"--truncate must be at least 0, not {args.truncate}")
    order = _build_order(args, rs)
    pbw = PBWCharacters(order)
    trunc = args.truncate
    weights = ([_parse_weight(args.alpha, rs.rank)] if args.alpha
               else list(verify_mod.weights_up_to(rs, 4 if args.max_height is None
                                                  else args.max_height)))
    items = []
    ok = True
    for weight in weights:
        lhs, rhs, den = dim_formula(weight, pbw)
        match = lhs == rhs
        ok = ok and match
        items.append({"alpha": list(weight), "dim_H": _series_json(lhs, den, trunc),
                      "sum_over_kp": _series_json(rhs, den, trunc), "match": match})
    doc = {"type": str(rs.cartan_type), "order": order.label,
           "truncate": trunc, "checks": items, "all_match": ok}
    lines = [f"{item['alpha']}: {'ok' if item['match'] else 'MISMATCH'}"
             for item in items]
    _emit(doc, args, "\n".join(lines))
    return 0 if ok else _fail("dimension formula mismatch",
                              failed=[i["alpha"] for i in items if not i["match"]])


def cmd_gram(args, rs: RootSystem) -> int:
    try:
        mods = [int(p) for p in args.mod.split(",")] if args.mod else [2]
        for p in mods:
            if p >= MR_BOUND:
                return _fail(f"--mod decides primality only below {MR_BOUND}, not {p}")
            check_characteristic(p)
    except ValueError:
        return _fail("--mod needs comma-separated primes or 0")
    if args.willcex:
        if str(rs.cartan_type) != "A5":
            return _fail("--willcex needs --type A --rank 5")
        if args.parts or args.word or args.eps or args.degree or args.order != "lyndon":
            return _fail("--willcex fixes --parts, --word, --eps, --degree and --order")
        M = verify_mod.willcex_module()
        G = verify_mod.willcex_gram(M)
        lam = M.lam
        word = verify_mod.WILLCEX_WORD
        degree = 0
    else:
        if not (args.parts and args.word):
            return _fail("gram needs --parts and --word (or --willcex)")
        lam = _parse_lambda(args.parts, rs.rank)
        word = _parse_word(args.word, "--word")
        if not all(1 <= x <= rs.rank for x in word):
            return _fail(f"--word {args.word!r} has a label outside the nodes "
                         f"1..{rs.rank} of {rs.cartan_type}")
        degree = args.degree
        order = _build_order(args, rs)
        engine = KLR(rs, _parse_eps(args.eps, rs))
        M = ProperStandard(engine, order, lam)
        have, want = word_weight(word, rs), sum_weight(lam, rs)
        if have != want:
            # the slice is zero, so the document (the empty matrix) is right;
            # the side channel names the mismatch a user most likely made
            print(f"--word {args.word!r} has weight {have}, not the weight {want} "
                  f"of --parts, so its slice is zero", file=sys.stderr)
        G = M.gram_matrix(word, degree)
    doc = {
        "lambda": [list(p) for p in lam],
        "word": render_word(word),
        "degree": degree,
        "matrix": G,
        "rank_char0": rank_over(G, 0),
        "rank_mod": {str(p): rank_over(G, p) for p in mods},
    }
    lines = ["  ".join(f"{e:>3}" for e in row) for row in G]
    lines.append(f"rank over Q: {doc['rank_char0']}; " +
                 "; ".join(f"rank mod {p}: {r}" for p, r in doc["rank_mod"].items()))
    _emit(doc, args, "\n".join(lines))
    return 0


def cmd_resolve(args, rs: RootSystem) -> int:
    order = _build_order(args, rs)
    if not args.alpha:
        return _fail("resolve needs --alpha")
    alpha = _parse_weight(args.alpha, rs.rank)
    if alpha not in rs.positive_set:
        return _fail(f"{alpha} is not a positive root")
    engine = KLR(rs, _parse_eps(args.eps, rs))
    cx = resolution(alpha, order, engine)
    d_ok = verify_complex(cx)
    e_ok = euler_matches(cx, order, PBWCharacters(order))
    doc = cx.to_json()
    doc["differential_squares_to_zero"] = d_ok
    doc["euler_matches_standard_character"] = e_ok
    lines = []
    for d in sorted(cx.terms, reverse=True):
        lines.append(f"P_{d} = " + " + ".join(f"q^{s} H 1_{render_word(w)}"
                                              for s, w in cx.terms[d]))
    lines.append(f"d^2 = 0: {d_ok}; Euler matches: {e_ok}")
    _emit(doc, args, "\n".join(lines))
    return 0 if (d_ok and e_ok) else _fail("resolution check failed")


def _worker_count(jobs: int) -> int:
    """verify-all processes: at most one per check and one per CPU."""
    return max(1, min(jobs, len(verify_mod.ALL_CHECKS), os.cpu_count() or 1))


def cmd_verify_all(args, rs=None) -> int:
    count = len(verify_mod.ALL_CHECKS)
    workers = _worker_count(args.jobs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(partial(verify_mod.run_check, seed=args.seed),
                                    range(count)))
    else:
        results = [verify_mod.run_check(t, args.seed) for t in range(count)]
    # timings stay out of the JSON so output is byte-identical across runs
    doc = {"seed": args.seed,
           "results": [{k: r[k] for k in ("name", "passed", "detail")}
                       for r in results],
           "passed": all(r["passed"] for r in results)}
    lines = [f"[{'PASS' if r['passed'] else 'FAIL'}] {r['name']}: "
             f"{r['detail']} ({r['seconds']}s)" for r in results]
    _emit(doc, args, "\n".join(lines))
    if not doc["passed"]:
        return _fail("verification failed",
                     failed=[r["name"] for r in results if not r["passed"]])
    return 0


COMMANDS = {
    "roots": cmd_roots,
    "orders": cmd_orders,
    "lyndon": cmd_lyndon,
    "kp": cmd_kp,
    "pbw-char": cmd_pbw_char,
    "canonical": cmd_canonical,
    "dim-check": cmd_dim_check,
    "gram": cmd_gram,
    "resolve": cmd_resolve,
    "verify-all": cmd_verify_all,
}


# add_argument keywords of every option; READS names those each subcommand reads
OPTIONS = {
    "type": dict(dest="family", default="A", help="Cartan family A..G"),
    "rank": dict(type=int, default=2),
    "order": dict(default="lyndon", help="'lyndon' or a reduced word like 121; "
                                         "commas (1,2,1) for labels >= 10"),
    "mod": dict(default="", help="characteristics for ranks: 0 or primes, by commas"),
    "truncate": dict(type=int, default=12, help="series truncation degree"),
    "eps": dict(default="", help="sign convention, e.g. '+12,-21'; default +1 for i<j"),
    "seed": dict(type=int, default=20260809),
    "jobs": dict(type=int, default=1),
    "out": dict(default=""),
    "cache-dir": dict(default=""),
    "alpha": dict(default="", help="weight as comma-separated coefficients"),
    "parts": dict(default="", help="Kostant partition parts, ';'-separated weights"),
    "word": dict(default="",
                 help="target word, e.g. 2121; commas (2,1,2,1) for labels >= 10"),
    "degree": dict(type=int, default=0),
    "max-height": dict(type=int, help="largest height checked; default 4"),
    "willcex": dict(action="store_true", help="the characteristic-2 Gram example in A5"),
    "config": dict(default="", help="JSON file of option defaults; flags win"),
}

READS = {
    "roots": ("type", "rank", "order"),
    "orders": ("type", "rank", "order"),
    "lyndon": ("type", "rank"),
    "kp": ("type", "rank", "order", "alpha"),
    "pbw-char": ("type", "rank", "order", "alpha"),
    "canonical": ("type", "rank", "order", "alpha", "cache-dir"),
    "dim-check": ("type", "rank", "order", "alpha", "max-height", "truncate"),
    "gram": ("type", "rank", "order", "eps", "parts", "word", "degree", "mod", "willcex"),
    "resolve": ("type", "rank", "order", "alpha", "eps"),
    "verify-all": ("seed", "jobs"),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="klrchar",
        description="Exact computations for finite type quiver Hecke algebras",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        for key in READS[name] + ("out", "config"):
            p.add_argument(f"--{key}", **OPTIONS[key])
    return top


def _apply_config(args, argv: list[str], parser):
    """Parse again with the config file's options placed before the flags.

    Config keys are flag names without the dashes ("cache-dir"); a flag
    given on the command line comes later and wins.
    """
    if not args.config:
        return args
    with open(args.config) as fh:
        try:
            conf = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"--config {args.config}: {e}") from None
    if not isinstance(conf, dict):
        raise ValueError(f"--config {args.config} holds no JSON object")
    options = []
    for key, value in conf.items():
        if value is True:
            options.append(f"--{key}")
        elif value is not False:
            options.append(f"--{key}={value}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + options + argv[at:])


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, argv, parser)
        if args.command == "verify-all":
            return cmd_verify_all(args)
        rs = RootSystem(CartanType(args.family, args.rank))
        return COMMANDS[args.command](args, rs)
    except BrokenPipeError:
        # the reader closed stdout: no error document can reach it, and
        # the flush at exit must not try the buffered output again
        sys.stdout = None
        return 1
    except (ValueError, ArithmeticError, OSError) as e:
        return _fail(str(e))
    except Exception as e:
        # anything else but exhausted memory or recursion depth is
        # unexpected: its traceback goes to stderr, and stdout still gets
        # the error document
        if not isinstance(e, (MemoryError, RecursionError)):
            traceback.print_exc()
        return _fail(f"{type(e).__name__}: {e}" if str(e) else type(e).__name__)


if __name__ == "__main__":
    sys.exit(main())
