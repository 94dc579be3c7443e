import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klrchar
from klrchar import cli, klr, verify
from klrchar.canonical import CanonicalTable
from klrchar.cartan import CartanType, RootSystem
from klrchar.cli import main
from klrchar.klr import KLR
from klrchar.modules import MR_BOUND


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_json(capsys):
    code, out, err = run_cli(capsys, "roots", "--type", "G", "--rank", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6
    assert doc["type"] == "G2"
    assert err.strip()


def test_lyndon_e6(capsys):
    code, out, _ = run_cli(capsys, "lyndon", "--type", "E", "--rank", "6")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["words"]) == 36
    assert doc["words"][0]["word"] == "1"


def test_orders_word_literal(capsys):
    code, out, _ = run_cli(capsys, "orders", "--type", "A", "--rank", "2",
                           "--order", "121")
    assert code == 0
    doc = json.loads(out)
    assert doc["roots"] == [[1, 0], [1, 1], [0, 1]]


def test_invalid_word_fails(capsys):
    code, out, _ = run_cli(capsys, "orders", "--type", "A", "--rank", "2",
                           "--order", "112")
    assert code == 1
    assert "error" in json.loads(out)


def test_kp_command(capsys):
    code, out, _ = run_cli(capsys, "kp", "--type", "A", "--rank", "2",
                           "--alpha", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2


def test_canonical_g2_json(capsys):
    code, out, _ = run_cli(capsys, "canonical", "--type", "G", "--rank", "2",
                           "--order", "lyndon")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 18


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "canonical", "--type", "G", "--rank", "2")
    _, out2, _ = run_cli(capsys, "canonical", "--type", "G", "--rank", "2")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "pbw-char", "--type", "B", "--rank", "3")
    _, out4, _ = run_cli(capsys, "pbw-char", "--type", "B", "--rank", "3")
    assert out3 == out4


def test_gram_willcex(capsys):
    code, out, _ = run_cli(capsys, "gram", "--type", "A", "--rank", "5",
                           "--willcex", "--mod", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank_char0"] == 3
    assert doc["rank_mod"]["2"] == 2
    assert doc["word"] == "4534234523123412"
    assert doc["degree"] == 0


def test_gram_generic(capsys):
    code, out, _ = run_cli(capsys, "gram", "--type", "A", "--rank", "2",
                           "--parts", "0,1;1,0", "--word", "21", "--mod", "2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"] == [[1]]
    assert doc["rank_mod"] == {"2": 1, "3": 1}


@pytest.mark.parametrize("mods", ["9", "1", "4", "-3", "2,x", "2,,3", " ", "3215031751",
                                  str(2 ** 89 - 1)])
def test_gram_mod_takes_only_characteristics(capsys, mods):
    code, out, _ = run_cli(capsys, "gram", "--type", "A", "--rank", "5",
                           "--willcex", "--mod", mods)
    assert code == 1
    # 2^89 - 1 is prime, but above the bound where primality is decided
    want = (f"--mod decides primality only below {MR_BOUND}, not {mods}"
            if mods == str(2 ** 89 - 1) else "--mod needs comma-separated primes or 0")
    assert json.loads(out) == {"error": want}


def test_gram_mod_zero_and_primes(capsys):
    code, out, _ = run_cli(capsys, "gram", "--type", "A", "--rank", "5",
                           "--willcex", "--mod", "0,2,3,7")
    assert code == 0
    assert json.loads(out)["rank_mod"] == {"0": 3, "2": 2, "3": 3, "7": 3}


@pytest.mark.parametrize("parts", ["0,1,x;1,0,0", "0,1,1;", "0,1,1;1,0", ";", "0,1,1 1,0,0"])
def test_unparsable_parts_names_the_option(capsys, parts):
    code, out, _ = run_cli(capsys, "gram", "--type", "A", "--rank", "3",
                           "--parts", parts, "--word", "2311")
    assert code == 1
    assert json.loads(out) == {"error": "--parts entries need 3 coefficients"}


@pytest.mark.parametrize("rank,parts,word", [(3, "1,1,1", "1234"), (2, "1,1", "3"),
                                              (2, "1,1", "0,1")])
def test_gram_word_outside_the_nodes_is_named(capsys, rank, parts, word):
    code, out, _ = run_cli(capsys, "gram", "--type", "A", "--rank", str(rank),
                           "--parts", parts, "--word", word)
    assert code == 1
    want = f"--word {word!r} has a label outside the nodes 1..{rank} of A{rank}"
    assert json.loads(out) == {"error": want}


@pytest.mark.parametrize("word,weight", [("12", (1, 1, 0)), ("112", (2, 1, 0))])
def test_gram_word_of_another_weight_is_named(capsys, word, weight):
    # a word of another weight has a zero slice: stdout is the empty matrix,
    # as for the pinned 2311 example, and stderr names the mismatch
    code, out, err = run_cli(capsys, "gram", "--type", "A", "--rank", "3",
                             "--parts", "1,1,1", "--word", word)
    assert code == 0
    assert json.loads(out)["matrix"] == []
    want = (f"--word {word!r} has weight {weight}, not the weight (1, 1, 1) "
            f"of --parts, so its slice is zero")
    assert err.splitlines()[0] == want


def test_python_m_klrchar_runs_the_cli(capsys):
    code, want, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "2")
    # the source tree alone, as a checkout runs it without an install
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(klrchar.__file__)))
    proc = subprocess.run([sys.executable, "-m", "klrchar", "roots", "--type", "A",
                           "--rank", "2"], capture_output=True, text=True, env=env)
    assert code == proc.returncode == 0
    assert proc.stdout == want


def test_kp_with_unfactorable_kappa_finishes(capsys):
    # kappa of the partition into fourteen a1+a2 is [14]!, which has no
    # factorization into [n]_d with n <= 12; the search rejects it at once
    code, out, err = run_cli(capsys, "kp", "--type", "A", "--rank", "2", "--alpha", "14,14")
    assert code == 0
    assert len(json.loads(out)["partitions"]) == 15
    lines = err.splitlines()
    assert "kappa=(q^-91 + 13*q^-89" in lines[0]
    assert "kappa=[2]_1" in lines[2]


@pytest.mark.parametrize("part", ["2,0", "0,0"])
def test_part_that_is_not_a_root_is_named(capsys, part):
    code, out, err = run_cli(capsys, "gram", "--type", "A", "--rank", "2",
                             "--parts", part, "--word", "11")
    assert code == 1
    want = f"part ({part.replace(',', ', ')}) is not a positive root of A2"
    assert json.loads(out) == {"error": want}
    assert "Traceback" not in err


def test_resolve_a3(capsys):
    code, out, _ = run_cli(capsys, "resolve", "--type", "A", "--rank", "3",
                           "--alpha", "1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["differential_squares_to_zero"] is True
    assert doc["euler_matches_standard_character"] is True
    assert doc["terms"][2]["summands"] == [{"shift": 2, "word": "321"}]


def test_resolve_a10_words_with_commas(capsys):
    code, out, _ = run_cli(capsys, "resolve", "--type", "A", "--rank", "10",
                           "--alpha", "0,0,0,0,0,0,0,0,1,1")
    assert code == 0
    doc = json.loads(out)
    words = [s["word"] for t in doc["terms"] for s in t["summands"]]
    assert words == ["9,10", "10,9"]
    entry = doc["differentials"][0]["matrix"][0][0][0]
    assert entry["word"] == "9,10"


def test_resolve_rejects_non_mult_free(capsys):
    code, out, _ = run_cli(capsys, "resolve", "--type", "G", "--rank", "2",
                           "--alpha", "2,1")
    assert code == 1
    assert "error" in json.loads(out)


def test_dim_check(capsys):
    code, out, _ = run_cli(capsys, "dim-check", "--type", "A", "--rank", "2",
                           "--alpha", "1,1", "--truncate", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_match"] is True


def test_dim_check_alpha_with_max_height_fails(tmp_path, capsys):
    argv = ("dim-check", "--type", "A", "--rank", "2", "--alpha", "1,1")
    code, out, _ = run_cli(capsys, *argv, "--max-height", "1")
    assert code == 1
    message = json.loads(out)["error"]
    assert "--alpha" in message and "--max-height" in message
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"max-height": 4}))
    code, out, _ = run_cli(capsys, *argv, "--config", str(conf))
    assert code == 1
    assert json.loads(out)["error"] == message


def test_dim_check_max_height_defaults_to_four(capsys):
    code, out, _ = run_cli(capsys, "dim-check", "--type", "A", "--rank", "2",
                           "--truncate", "4")
    assert code == 0
    heights = {sum(c["alpha"]) for c in json.loads(out)["checks"]}
    assert heights == {1, 2, 3, 4}


@pytest.mark.parametrize("height", ["0", "-1"])
def test_dim_check_refuses_max_height_below_one(capsys, height):
    code, out, _ = run_cli(capsys, "dim-check", "--type", "A", "--rank", "2",
                           "--max-height", height)
    assert code == 1
    assert json.loads(out) == {"error": f"--max-height must be at least 1, not {height}"}


def test_dim_check_refuses_negative_truncate(capsys):
    code, out, _ = run_cli(capsys, "dim-check", "--type", "A", "--rank", "2",
                           "--alpha", "1,1", "--truncate", "-3")
    assert code == 1
    assert json.loads(out) == {"error": "--truncate must be at least 0, not -3"}


def test_kp_needs_alpha(capsys):
    code, out, _ = run_cli(capsys, "kp", "--type", "A", "--rank", "2")
    assert code == 1
    assert json.loads(out) == {"error": "kp needs --alpha"}


INCOMPLETE_REQUESTS = [
    ("pbw-char --type A --rank 2 --alpha 2,1", "(2, 1) is not a positive root"),
    ("resolve --type A --rank 3", "resolve needs --alpha"),
    ("resolve --type A --rank 3 --alpha 1,0,1", "(1, 0, 1) is not a positive root"),
    ("gram --type A --rank 3 --willcex", "--willcex needs --type A --rank 5"),
    ("gram --type A --rank 2 --word 21", "gram needs --parts and --word (or --willcex)"),
]


@pytest.mark.parametrize("argv,error", INCOMPLETE_REQUESTS,
                         ids=[a for a, _ in INCOMPLETE_REQUESTS])
def test_incomplete_requests_are_named(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1
    assert json.loads(out) == {"error": error}
    assert err == ""


def test_pbw_char_alpha_prints_one_root(capsys):
    code, out, err = run_cli(capsys, "pbw-char", "--type", "A", "--rank", "2",
                             "--alpha", "1,1")
    assert code == 0
    [item] = json.loads(out)["characters"]
    assert item["root"] == [1, 1]
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["kp", "pbw-char", "canonical"])
def test_unparsable_alpha_names_the_option(capsys, command):
    code, out, _ = run_cli(capsys, command, "--type", "A", "--rank", "2",
                           "--alpha", "1,x")
    assert code == 1
    assert json.loads(out) == {"error": "--alpha needs 2 comma-separated coefficients"}


@pytest.mark.parametrize("command", ["kp", "canonical", "dim-check"])
@pytest.mark.parametrize("alpha", ["-1,2", "-1,1", "1,-1"])
def test_negative_alpha_is_refused(capsys, command, alpha):
    # not a weight: dim-check used to report a formula mismatch, and kp and
    # canonical printed empty documents with exit status 0
    code, out, _ = run_cli(capsys, command, "--type", "A", "--rank", "2",
                           f"--alpha={alpha}")
    assert code == 1
    assert json.loads(out) == {"error": f"--alpha needs non-negative coefficients, not {alpha}"}


def test_bad_rank(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "D", "--rank", "2")
    assert code == 1
    assert "error" in json.loads(out)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "2",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["count"] == 3


def test_failed_out_write_keeps_the_earlier_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "roots.json"
    target.write_text("earlier\n")

    def dump_a_prefix(doc, fh, **kw):
        fh.write('{"count": ')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_a_prefix)
    code, out, err = run_cli(capsys, "roots", "--type", "A", "--rank", "2",
                             "--out", str(target))
    assert code == 1
    assert json.loads(out) == {"error": "[Errno 28] No space left on device"}
    assert "Traceback" not in err
    assert target.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["roots.json"]


def test_out_through_a_link_or_to_a_pipe_is_written_in_place(tmp_path, capsys):
    # a named pipe stands for a device such as /dev/stdout: replacing a
    # real device in a test would break it for the whole machine
    target, link, fifo = tmp_path / "roots.json", tmp_path / "link.json", tmp_path / "fifo"
    link.symlink_to(target)
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        for out in (link, fifo):
            code, _, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "2",
                                 "--out", str(out))
            assert code == 0
        piped = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert link.is_symlink() and fifo.is_fifo()
    assert json.loads(target.read_text()) == json.loads(piped)
    assert json.loads(piped)["count"] == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.json", "roots.json"]


def test_cache_dir(tmp_path, capsys, monkeypatch):
    argv = ("canonical", "--type", "G", "--rank", "2", "--cache-dir", str(tmp_path))
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert list(tmp_path.glob("canonical-*.json"))
    # the second run reads every character from the cache and computes none
    monkeypatch.setattr(CanonicalTable, "_leclerc", None)
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert second == first


def _corrupt(line: str, case: str) -> str:
    """The cache line [kp, words, coeffs] with its first word or coefficient
    [exponent, coefficient, ...] corrupted."""
    kp, words, coeffs = json.loads(line)
    if case == "word-of-another-weight":
        # the same length, one letter swapped for the other label of G2
        words[0][0] = 3 - words[0][0]
    elif case == "exponent-repeated":
        coeffs[0][2] = coeffs[0][0]
    else:
        slot, value = {"exponent-str": (0, "0"), "exponent-float": (0, 0.5),
                       "coefficient-zero": (1, 0), "coefficient-str": (1, "1"),
                       "coefficient-float": (1, 1.0)}[case]
        coeffs[0][slot] = value
    return json.dumps([kp, words, coeffs])


@pytest.mark.parametrize("case", ["exponent-str", "exponent-float", "exponent-repeated",
                                  "coefficient-zero", "coefficient-str",
                                  "coefficient-float", "word-of-another-weight"])
def test_corrupt_cache_value_is_a_miss(tmp_path, capsys, case):
    # a corrupt value makes the whole file a miss: the table is computed
    # again, printed as before and written back whole
    argv = ("canonical", "--type", "G", "--rank", "2", "--cache-dir", str(tmp_path))
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    [path] = tmp_path.glob("canonical-*.json")
    good = path.read_text()
    lines = good.splitlines()
    # the weight 3a1 + 2a2, whose first word has both labels
    k = next(k for k, line in enumerate(lines) if line.startswith("[[[3, 2]]"))
    lines[k] = _corrupt(lines[k], case)
    path.write_text("\n".join(lines) + "\n")
    code, second, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert second == first
    assert path.read_text() == good


def test_cache_dir_labels_ten_and_up(tmp_path, capsys):
    # the second run reads the words "9,10" and "10,9" back from the cache
    argv = ("canonical", "--type", "A", "--rank", "10",
            "--alpha", "0,0,0,0,0,0,0,0,1,1", "--cache-dir", str(tmp_path))
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "10,9" in first
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert second == first


def test_cache_dir_one_letter_label_ten(tmp_path, capsys):
    # the one-letter word (10,) is written "10," and read back from the cache
    argv = ("canonical", "--type", "A", "--rank", "10",
            "--alpha", "0,0,0,0,0,0,0,0,0,1", "--cache-dir", str(tmp_path))
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert '"10,"' in first
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert second == first


def test_config_file_flags_win(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"type": "G", "rank": 2}))
    code, out, _ = run_cli(capsys, "roots", "--config", str(conf))
    assert code == 0
    assert json.loads(out)["type"] == "G2"
    # explicit flag beats the config value
    code, out, _ = run_cli(capsys, "roots", "--config", str(conf),
                           "--type", "B", "--rank", "3")
    assert json.loads(out)["type"] == "B3"


def test_order_word_with_commas(capsys):
    _, digits, _ = run_cli(capsys, "orders", "--type", "A", "--rank", "2",
                           "--order", "121")
    _, commas, _ = run_cli(capsys, "orders", "--type", "A", "--rank", "2",
                           "--order", "1,2,1")
    assert commas == digits
    # labels >= 10 need the commas: s_1 s_2 s_1 ... s_10 ... s_1 in A10
    word = [i for k in range(1, 11) for i in range(k, 0, -1)]
    code, out, _ = run_cli(capsys, "orders", "--type", "A", "--rank", "10",
                           "--order", ",".join(map(str, word)))
    assert code == 0
    assert len(json.loads(out)["roots"]) == 55


def test_gram_word_with_commas(capsys):
    args = ("gram", "--type", "A", "--rank", "2", "--parts", "0,1;1,1;1,0")
    code, digits, _ = run_cli(capsys, *args, "--word", "2121")
    assert code == 0
    assert json.loads(digits)["matrix"] == [[1]]
    _, commas, _ = run_cli(capsys, *args, "--word", "2,1,2,1")
    assert commas == digits


def test_bad_word_named(capsys):
    code, out, _ = run_cli(capsys, "orders", "--type", "A", "--rank", "2",
                           "--order", "1x1")
    assert code == 1
    assert "--order" in json.loads(out)["error"]


@pytest.mark.parametrize("eps", ["+1", "12", "*12", "+123", "+14", "+1:4", "+1:",
                                 "+0:1", "+1:2:3", "1:2", "+01:2"])
def test_malformed_eps_named(capsys, eps):
    code, out, _ = run_cli(capsys, "resolve", "--type", "A", "--rank", "3",
                           "--alpha", "1,1,1", "--eps", eps)
    assert code == 1
    assert repr(eps) in json.loads(out)["error"]


def test_any_exception_becomes_error_document(capsys, monkeypatch):
    # an unexpected exception also prints its traceback on stderr
    def lookup_fails(args, rs):
        raise KeyError("gone")

    monkeypatch.setitem(cli.COMMANDS, "pbw-char", lookup_fails)
    code, out, err = run_cli(capsys, "pbw-char", "--type", "E", "--rank", "8")
    assert code == 1
    assert json.loads(out) == {"error": "KeyError: 'gone'"}
    assert "Traceback" in err and "KeyError" in err


@pytest.mark.parametrize("exc,doc", [
    (MemoryError, {"error": "MemoryError"}),
    (RecursionError("maximum recursion depth exceeded"),
     {"error": "RecursionError: maximum recursion depth exceeded"})])
def test_exhausted_resources_print_no_traceback(capsys, monkeypatch, exc, doc):
    def exhausted(args, rs):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "pbw-char", exhausted)
    code, out, err = run_cli(capsys, "pbw-char", "--type", "E", "--rank", "8")
    assert code == 1
    assert json.loads(out) == doc
    assert "Traceback" not in err


def test_budget_refusal_prints_no_traceback(capsys, monkeypatch):
    monkeypatch.setattr(klr, "TERM_BUDGET", 1)
    code, out, err = run_cli(capsys, "gram", "--type", "A", "--rank", "3",
                             "--parts", "0,1,0;1,1,1;1,0,0", "--word", "12123")
    assert code == 1
    assert json.loads(out)["error"].endswith("monomials, over the budget of 1")
    assert "Traceback" not in err


def test_strand_limit_prints_no_traceback(capsys, monkeypatch):
    monkeypatch.setattr(klr, "MAX_STRANDS", 4)
    code, out, err = run_cli(capsys, "gram", "--type", "A", "--rank", "3",
                             "--parts", "0,1,0;1,1,1;1,0,0", "--word", "12123")
    assert code == 1
    assert json.loads(out) == {"error": "a permutation of 5 strands is over the limit "
                                        "of 4 strands that canonical words are kept for"}
    assert "Traceback" not in err


def test_config_dest_differs_from_flag(tmp_path, capsys):
    # --type is stored as `family`, --cache-dir as `cache_dir`
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"type": "G", "cache-dir": str(tmp_path)}))
    code, out, _ = run_cli(capsys, "canonical", "--rank", "2", "--config", str(conf))
    assert code == 0
    assert json.loads(out)["type"] == "G2"
    assert list(tmp_path.glob("canonical-*.json"))


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"roots"', "{"])
def test_config_not_an_object_is_named(tmp_path, capsys, text):
    conf = tmp_path / "conf.json"
    conf.write_text(text)
    code, out, err = run_cli(capsys, "roots", "--config", str(conf))
    assert code == 1
    assert "Traceback" not in err
    error = json.loads(out)["error"]
    assert error.startswith(f"--config {conf}")


class ClosedPipe:
    """A stdout whose reader has gone: every write fails."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_exits_quietly(capsys, monkeypatch):
    pipe = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    code = main(["roots", "--type", "G", "--rank", "2"])
    assert code == 1
    # the failed write is the only one: no error document follows it
    assert pipe.writes == 1
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_quietly():
    # a block-buffered stdout keeps the failed output, and the flush at
    # interpreter exit would fail on it again
    src = os.path.dirname(os.path.dirname(klrchar.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "klrchar.cli", "roots"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


# the options each subcommand reads, besides --out and --config
READS = {
    "roots": {"type", "rank", "order"},
    "orders": {"type", "rank", "order"},
    "lyndon": {"type", "rank"},
    "kp": {"type", "rank", "order", "alpha"},
    "pbw-char": {"type", "rank", "order", "alpha"},
    "canonical": {"type", "rank", "order", "alpha", "cache-dir"},
    "dim-check": {"type", "rank", "order", "alpha", "max-height", "truncate"},
    "gram": {"type", "rank", "order", "eps", "parts", "word", "degree", "mod", "willcex"},
    "resolve": {"type", "rank", "order", "alpha", "eps"},
    "verify-all": {"seed", "jobs"},
}
# every flag with a value it parses (None: takes no value)
FLAG_VALUES = {"type": "A", "rank": "2", "order": "121", "mod": "2", "truncate": "8",
               "eps": "+12", "seed": "1", "jobs": "1", "out": "o.json", "cache-dir": "c",
               "alpha": "1,1", "parts": "1,0;0,1", "word": "12", "degree": "0",
               "max-height": "3", "willcex": None, "config": "c.json"}


def test_each_subcommand_takes_only_the_options_it_reads(capsys):
    assert set(READS) == set(cli.COMMANDS)
    parser = cli.build_parser()
    accepted = rejected = 0
    for name in cli.COMMANDS:
        for key, value in FLAG_VALUES.items():
            argv = [name, f"--{key}"] + ([] if value is None else [value])
            if key in READS[name] | {"out", "config"}:
                parser.parse_args(argv)
                accepted += 1
            else:
                with pytest.raises(SystemExit) as e:
                    parser.parse_args(argv)
                assert e.value.code == 2, argv
                rejected += 1
    capsys.readouterr()
    assert (accepted, rejected) == (63, 107)


A5_W0 = "121321432154321"  # s_1 (s_2 s_1) ... (s_5 ... s_1), a reduced word of w0


@pytest.mark.parametrize("flag,value", [("--word", "12"), ("--parts", "1,0,0,0,0"),
                                        ("--eps", "+12"), ("--degree", "1"),
                                        ("--order", A5_W0)])
def test_willcex_refuses_what_it_fixes(capsys, flag, value):
    code, _, _ = run_cli(capsys, "orders", "--type", "A", "--rank", "5", "--order", A5_W0)
    assert code == 0
    code, out, _ = run_cli(capsys, "gram", "--type", "A", "--rank", "5", "--willcex",
                           flag, value)
    assert code == 1
    assert "--willcex" in json.loads(out)["error"]


def test_config_key_the_subcommand_does_not_read(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"truncate": 5}))
    with pytest.raises(SystemExit) as e:
        main(["roots", "--config", str(conf)])
    assert e.value.code == 2
    assert "--truncate" in capsys.readouterr().err


def test_readme_commands_parse(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines()
             if line.startswith("klrchar ")]
    assert len(lines) >= 11
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
    assert capsys.readouterr().err == ""


def test_verify_jobs_capped(monkeypatch):
    checks = len(verify.ALL_CHECKS)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._worker_count(100) == checks
    assert cli._worker_count(3) == 3
    assert cli._worker_count(0) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._worker_count(8) == 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(8) == 1


def plain_check():
    return {"name": "plain", "passed": True, "detail": "ok", "seconds": 1.25}


def seeded_check(seed):
    return {"name": "seeded", "passed": True, "detail": f"seed {seed}", "seconds": 2.5}


def failing_check():
    return {"name": "failing", "passed": False, "detail": "broken", "seconds": 0.5}


@pytest.fixture
def stub_checks(monkeypatch):
    """verify-all over fast stand-ins, one of them seeded; returns the list.

    --jobs workers are forked, so they see the stand-ins too.
    """
    checks = [plain_check, seeded_check]
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)
    monkeypatch.setattr(verify, "_SEEDED", {seeded_check})
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    return checks


def test_verify_all_document_is_the_same_for_any_jobs(capsys, stub_checks):
    code, out, err = run_cli(capsys, "verify-all", "--seed", "7")
    assert code == 0
    assert json.loads(out) == {
        "seed": 7, "passed": True,
        "results": [{"name": "plain", "passed": True, "detail": "ok"},
                    {"name": "seeded", "passed": True, "detail": "seed 7"}]}
    # the seconds go to stderr alone
    assert "1.25" not in out and "seconds" not in out
    assert err.splitlines() == ["[PASS] plain: ok (1.25s)", "[PASS] seeded: seed 7 (2.5s)"]
    assert run_cli(capsys, "verify-all", "--seed", "7", "--jobs", "2") == (code, out, err)


def test_verify_all_names_the_failed_checks(capsys, stub_checks):
    stub_checks.append(failing_check)
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 1
    doc, error = out.rstrip("\n").rsplit("\n", 1)
    assert json.loads(doc)["passed"] is False
    assert json.loads(error) == {"error": "verification failed", "failed": ["failing"]}


def test_import_leaves_recursion_limit_alone():
    # a fresh interpreter, as this one has imported klrchar already
    src = os.path.dirname(os.path.dirname(klrchar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; before = sys.getrecursionlimit(); import klrchar.cli; "
            "print(before, sys.getrecursionlimit())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout.split()
    assert out[0] == out[1]


def test_package_imports_only_the_standard_library():
    # klrchar is stdlib-only: every import is relative or names a module
    # of the standard library
    modules = sorted(Path(klrchar.__file__).parent.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


# stdout digests (first 16 hex digits of sha256) of the acceptance commands;
# verify-all takes seconds and is compared by hand
STDOUT_DIGESTS = [
    ("roots --type G --rank 2", "50136b7af46a60df"),
    ("orders --type A --rank 3 --order 123121", "895a4f686a42c4cc"),
    ("lyndon --type E --rank 8", "92dd4433958cdf43"),
    ("kp --type G --rank 2 --alpha 3,2", "ae84d34bb232c249"),
    ("pbw-char --type F --rank 4", "1d7c45934fb08a50"),
    ("canonical --type G --rank 2", "1c3acecedc645df3"),
    ("canonical --type B --rank 3 --alpha 1,2,2", "61b6f827586c80b1"),
    ("dim-check --type B --rank 3 --max-height 4 --truncate 10", "0d1bb1b44e466ca9"),
    ("dim-check --type B --rank 3 --max-height 5 --truncate 10", "30d7d5116f060630"),
    ("dim-check --type G --rank 2 --max-height 5 --truncate 12", "99f2168a53e8a131"),
    ("dim-check --type D --rank 4 --max-height 4 --truncate 12", "b132f470e29fcf03"),
    ("dim-check --type F --rank 4 --alpha 1,2,2,1 --truncate 14", "5ac2ceda19cf7491"),
    ("gram --type A --rank 5 --willcex --mod 2,3", "4e7a170e3f6d7776"),
    # 2311 has weight (2,1,1), not the parts' (1,1,1): the empty matrix
    ('gram --type A --rank 3 --parts "0,1,1;1,0,0" --word 2311 --degree 0',
     "db2c79e718f088aa"),
    # [[-1, 1], [1, -1]], rank 1 over Q and mod 2
    ('gram --type A --rank 3 --parts "0,1,0;1,1,1;1,0,0" --word 12123 --degree 0',
     "c434a81412f5df7a"),
    ("resolve --type D --rank 5 --alpha 1,1,1,1,1", "170d729d3fb06586"),
    ('resolve --type A --rank 3 --alpha 1,1,1 --eps "+12,-21"', "39ac8ecb5b3bc72e"),
]


@pytest.mark.parametrize("command,digest", STDOUT_DIGESTS,
                         ids=[c for c, _ in STDOUT_DIGESTS])
def test_stdout_is_byte_identical(capsys, command, digest):
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


# stderr digests of the commands that render characters and their coefficients
STDERR_DIGESTS = [
    ("pbw-char --type F --rank 4", "167daa3490c70e9d"),
    ("canonical --type G --rank 2", "7d8288da5a774986"),
    ("canonical --type B --rank 3 --alpha 1,2,2", "23704bbd64303bb9"),
    ("kp --type G --rank 2 --alpha 3,2", "9a447fbb636dadd0"),
]


@pytest.mark.parametrize("command,digest", STDERR_DIGESTS,
                         ids=[c for c, _ in STDERR_DIGESTS])
def test_stderr_is_byte_identical(capsys, command, digest):
    code, _, err = run_cli(capsys, *shlex.split(command))
    assert code == 0
    assert hashlib.sha256(err.encode()).hexdigest()[:16] == digest


# --eps on the Dynkin edges: each edge gets a sign, written as +ij or -ji,
# or with a colon (+i:j), which labels of 10 and above need
EPS_TYPES = [("A", 3), ("B", 3), ("D", 4), ("G", 2), ("E", 6), ("A", 11), ("D", 10)]


def dynkin_edges(rs):
    return [(i, j) for i in range(1, rs.rank + 1) for j in range(i + 1, rs.rank + 1)
            if rs.cartan[i - 1][j - 1] < 0]


@st.composite
def eps_text(draw):
    fam, rank = draw(st.sampled_from(EPS_TYPES))
    rs = RootSystem(CartanType(fam, rank))
    edge_of, full = {}, {}
    for i, j in dynkin_edges(rs):
        s = draw(st.sampled_from((1, -1)))
        full[(i, j)], full[(j, i)] = s, -s
        for a, b in draw(st.sampled_from([[(i, j)], [(j, i)], [(i, j), (j, i)]])):
            sep = ":" if max(a, b) > 9 or draw(st.booleans()) else ""
            edge_of[f"{'+' if full[(a, b)] > 0 else '-'}{a}{sep}{b}"] = (a, b)
    return rs, draw(st.permutations(list(edge_of))), edge_of, full


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(eps_text())
def test_parse_eps_completes_to_the_drawn_signs(drawn):
    rs, chunks, edge_of, full = drawn
    eps = cli._parse_eps(",".join(chunks), rs)
    assert eps == {e: full[e] for e in edge_of.values()}
    assert KLR(rs, eps).eps == full


BAD_CHUNK = st.text(alphabet="+-*0123456789x ", min_size=1, max_size=5).filter(
    lambda c: not re.fullmatch(r"[+-][1-3][1-3]", c.strip()))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(BAD_CHUNK, st.integers(0, 1))
def test_parse_eps_names_a_malformed_chunk(chunk, at):
    rs = RootSystem(CartanType("A", 3))
    good = ["+12", "-23"]
    with pytest.raises(ValueError) as e:
        cli._parse_eps(",".join(good[:at] + [chunk] + good[at:]), rs)
    assert repr(chunk.strip()) in str(e.value)
