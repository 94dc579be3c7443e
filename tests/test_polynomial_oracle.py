"""Independent check of the straightening kernel against the polynomial module.

The algebra acts faithfully on sums of polynomial spaces indexed by words:
the idempotents project, x_k multiplies, and the crossing acts by a divided
difference on equal letters and by a (possibly scaled) swap otherwise.  The
scaling side of the case split is calibrated once against the defining
relations; after that, evaluating an arbitrary generator product directly
must agree with evaluating its straightened normal form.
"""

import random
from itertools import product

import pytest

from klrchar.cartan import CartanType, RootSystem
from klrchar.klr import KLR, canon_word, perm_len, perm_of_word

Poly = dict  # exps tuple -> coeff


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def poly_swap(a: Poly, k: int) -> Poly:
    out: Poly = {}
    for e, c in a.items():
        e2 = list(e)
        e2[k], e2[k + 1] = e2[k + 1], e2[k]
        out[tuple(e2)] = c
    return out


def poly_demazure(a: Poly, k: int, n: int) -> Poly:
    """(s_k a - a) / (x_k - x_{k+1}), exact on every monomial."""
    out: Poly = {}

    def add(e, c):
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]

    for e, c in a.items():
        p, q = e[k], e[k + 1]
        if p == q:
            continue
        base = list(e)
        if p > q:
            for t in range(p - q):
                b = list(base)
                b[k], b[k + 1] = q + t, p - 1 - t
                add(tuple(b), -c)
        else:
            for t in range(q - p):
                b = list(base)
                b[k], b[k + 1] = p + t, q - 1 - t
                add(tuple(b), c)
    return out


class PolyRep:
    """The polynomial module; vectors are {(word, exps): coeff}."""

    def __init__(self, klr: KLR, n: int, swap_scaled_on_greater: bool):
        self.klr = klr
        self.n = n
        self.greater = swap_scaled_on_greater

    def act_x(self, p: int, vec: dict) -> dict:
        out: dict = {}
        for (word, e), c in vec.items():
            e2 = list(e)
            e2[p] += 1
            key = (word, tuple(e2))
            out[key] = out.get(key, 0) + c
        return out

    def act_e(self, target, vec: dict) -> dict:
        return {k: c for k, c in vec.items() if k[0] == tuple(target)}

    def act_tau(self, k: int, vec: dict) -> dict:
        out: dict = {}

        def add(word, poly, scale):
            for e, c in poly.items():
                key = (word, e)
                s = out.get(key, 0) + c * scale
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]

        C = self.klr.cartan
        for (word, e), c in vec.items():
            a, b = word[k], word[k + 1]
            f = {e: 1}
            if a == b:
                add(word, poly_demazure(f, k, self.n), c)
                continue
            swapped = word[:k] + (b, a) + word[k + 2:]
            sf = poly_swap(f, k)
            scale_here = (a > b) if self.greater else (a < b)
            if C[a - 1][b - 1] < 0 and scale_here:
                eps = self.klr.eps[(b, a)]
                q = {}
                z = [0] * self.n
                z1 = list(z)
                z1[k] = -C[b - 1][a - 1]
                q[tuple(z1)] = eps
                z2 = list(z)
                z2[k + 1] = -C[a - 1][b - 1]
                q[tuple(z2)] = q.get(tuple(z2), 0) - eps
                sf = poly_mul(q, sf)
            add(swapped, sf, c)
        return out

    def act_gens(self, gens, vec: dict) -> dict:
        for g in reversed(gens):
            kind, arg = g
            if kind == "x":
                vec = self.act_x(arg, vec)
            elif kind == "tau":
                vec = self.act_tau(arg, vec)
            else:
                vec = self.act_e(arg, vec)
            if not vec:
                return {}
        return vec

    def act_element(self, elem: dict, vec: dict) -> dict:
        total: dict = {}
        for (i, w, a), c in elem.items():
            part = self.act_e(i, vec)
            if not part:
                continue
            for t in reversed(canon_word(w)):
                part = self.act_tau(t, part)
            for p, mult in enumerate(a):
                for _ in range(mult):
                    part = self.act_x(p, part)
            for key, cc in part.items():
                s = total.get(key, 0) + c * cc
                if s:
                    total[key] = s
                elif key in total:
                    del total[key]
        return total


def calibrate(klr: KLR, n: int) -> PolyRep:
    """Pick the case split that satisfies the defining relations."""
    from itertools import product

    letters = range(1, klr.rs.rank + 1)
    for greater in (True, False):
        rep = PolyRep(klr, n, greater)
        ok = True
        for word in product(letters, repeat=n):
            word = tuple(word)
            v = {(word, (0,) * n): 1}
            for k in range(n - 1):
                got = rep.act_tau(k, rep.act_tau(k, v))
                want = {}
                for coeff, em in klr.quad_terms(k, word):
                    t = dict(v)
                    for p, exp in enumerate(em):
                        for _ in range(exp):
                            t = rep.act_x(p, t)
                    for key, c in t.items():
                        s = want.get(key, 0) + c * coeff
                        if s:
                            want[key] = s
                        elif key in want:
                            del want[key]
                if got != want:
                    ok = False
                    break
            if not ok:
                break
            for k in range(n - 2):
                lhs = rep.act_gens([("tau", k + 1), ("tau", k), ("tau", k + 1)], v)
                rhs = rep.act_gens([("tau", k), ("tau", k + 1), ("tau", k)], v)
                diff = dict(lhs)
                for key, c in rhs.items():
                    s = diff.get(key, 0) - c
                    if s:
                        diff[key] = s
                    elif key in diff:
                        del diff[key]
                want = {}
                for coeff, em in klr.braid_terms(k, word):
                    t = dict(v)
                    for p, exp in enumerate(em):
                        for _ in range(exp):
                            t = rep.act_x(p, t)
                    for key, c in t.items():
                        s = want.get(key, 0) + c * coeff
                        if s:
                            want[key] = s
                        elif key in want:
                            del want[key]
                if diff != want:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return rep
    raise AssertionError("no case split satisfies the relations")


@pytest.mark.parametrize("fam,rank,n", [("A", 2, 3), ("B", 2, 3),
                                        ("G", 2, 3), ("A", 3, 4)])
def test_normal_form_matches_polynomial_module(fam, rank, n):
    rs = RootSystem(CartanType(fam, rank))
    klr = KLR(rs)
    rep = calibrate(klr, n)
    rng = random.Random(f"{fam}{rank}{n}")
    for _ in range(60):
        word = tuple(rng.randint(1, rank) for _ in range(n))
        gens = []
        for _ in range(rng.randint(1, 7)):
            if rng.random() < 0.3:
                gens.append(("x", rng.randrange(n)))
            else:
                gens.append(("tau", rng.randrange(n - 1)))
        # straighten through the engine
        elem = klr.idempotent(word)
        for kind, arg in reversed(gens):
            elem = klr.lmul_x(arg, elem) if kind == "x" else klr.lmul_tau(arg, elem)
        # start from a random polynomial vector in the word space
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        start = {(word, exps): 1}
        direct = rep.act_gens(gens, start)
        via_normal_form = rep.act_element(elem, start)
        assert direct == via_normal_form, (fam, word, gens)


# every reduced word of S_4 of length 2 to 6: 62 words, canonical or not
REDUCED_WORDS_S4 = [seq for length in range(2, 7)
                    for seq in product(range(3), repeat=length)
                    if perm_len(perm_of_word(seq, 4)) == length]


@pytest.mark.parametrize("fam,rank", [("A", 2), ("A", 3), ("B", 3), ("G", 2)])
def test_word_to_normal_matches_polynomial_module(fam, rank):
    # word_to_normal is the one place that tests a reduced word for
    # canonicity; a non-canonical word must be rewritten, braid corrections
    # and all, into the normal form of the same product
    n = 4
    klr = KLR(RootSystem(CartanType(fam, rank)))
    rep = calibrate(klr, n)
    rng = random.Random(f"word_to_normal {fam}{rank}")
    for seq in REDUCED_WORDS_S4:
        v = perm_of_word(seq, n)
        for _ in range(6):
            word = tuple(rng.randint(1, rank) for _ in range(n))
            exps = tuple(rng.randint(0, 2) for _ in range(n))
            start = {(word, exps): 1}
            direct = rep.act_gens([("tau", k) for k in seq], start)
            via_normal_form = rep.act_element(klr.word_to_normal(seq, v, word), start)
            assert direct == via_normal_form, (fam, seq, word)
