"""Exact sparse Laurent polynomials in q over Z.

Every coefficient in the toolkit is one of these, kept as an
{exponent: coefficient} dict with no zero entries; all arithmetic is exact
integer arithmetic.  `LaurentPoly.exact_div` and `series`, which expands a
quotient to a printed truncation, share one long division, `_divide`.
"""

from __future__ import annotations


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact over Z[q, q^-1] is not."""


class LaurentPoly:
    # _hash is set by the first hash(); nothing writes .c once it is built
    __slots__ = ("c", "_hash")

    def __init__(self, c: dict[int, int] | None = None):
        self.c = c if c is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def term(cls, coeff: int = 1, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff} if coeff else {})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def qint(cls, n: int, d: int = 1) -> "LaurentPoly":
        """Balanced quantum integer [n] with q replaced by q^d."""
        if n < 0:
            return -cls.qint(-n, d)
        return cls({d * (n - 1 - 2 * t): 1 for t in range(n)})

    @classmethod
    def qfact(cls, n: int, d: int = 1) -> "LaurentPoly":
        out = cls.one()
        for m in range(2, n + 1):
            out = out * cls.qint(m, d)
        return out

    # -- ring operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(frozenset(self.c.items()))
            return h

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.c)
        for e, a in other.c.items():
            b = out.get(e, 0) + a
            if b:
                out[e] = b
            else:
                del out[e]
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -a for e, a in self.c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            return LaurentPoly({e: a * other for e, a in self.c.items()})
        out: dict[int, int] = {}
        for e1, a1 in self.c.items():
            for e2, a2 in other.c.items():
                e = e1 + e2
                b = out.get(e, 0) + a1 * a2
                if b:
                    out[e] = b
                elif e in out:
                    del out[e]
        return LaurentPoly(out)

    __rmul__ = __mul__

    # -- structure ---------------------------------------------------------

    def min_exp(self) -> int:
        return min(self.c)

    def max_exp(self) -> int:
        return max(self.c)

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^-1."""
        return LaurentPoly({-e: a for e, a in self.c.items()})

    def is_bar_invariant(self) -> bool:
        return all(self.c.get(-e, 0) == a for e, a in self.c.items())

    def pos_part(self) -> "LaurentPoly":
        """Terms with strictly positive exponent."""
        return LaurentPoly({e: a for e, a in self.c.items() if e > 0})

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other; raises ExactDivisionError otherwise."""
        if not other:
            raise ExactDivisionError("division by zero")
        if not self:
            return LaurentPoly()
        rem = dict(self.c)
        # a quotient term at e - e0 reaches rem up to e + span, so the last
        # one clears rem at top - span at most
        quo = _divide(rem, other, self.max_exp() - other.max_exp() + other.min_exp())
        if any(rem.values()):
            raise ExactDivisionError("inexact Laurent division")
        return LaurentPoly(quo)

    # -- rendering ---------------------------------------------------------

    def to_json(self) -> dict[str, int]:
        return {str(e): self.c[e] for e in sorted(self.c)}

    def __str__(self) -> str:
        if not self.c:
            return "0"
        bits = []
        for e in sorted(self.c):
            a = self.c[e]
            if e == 0:
                bits.append(f"{a}")
            else:
                mon = "q" if e == 1 else f"q^{e}"
                if a == 1:
                    bits.append(mon)
                elif a == -1:
                    bits.append(f"-{mon}")
                else:
                    bits.append(f"{a}*{mon}")
        out = bits[0]
        for b in bits[1:]:
            out += f" + {b}" if not b.startswith("-") else f" - {b[1:]}"
        return out

    __repr__ = __str__


QUANTUM_FACTOR_MAX_N = 12


def quantum_factors(p: LaurentPoly) -> list[tuple[int, int]] | None:
    """Factor a positive bar-invariant polynomial as a product of [n] in q^d.

    Returns (n, d) pairs sorted by (d, n), with n <= QUANTUM_FACTOR_MAX_N, or
    None.  p(1) is the product of the n, so a prime factor of p(1) above that
    rules p out at once; else a depth-first search takes factors in
    non-increasing (d, n), each multiset of factors in one order only.
    """
    m = sum(p.c.values())
    for k in range(2, QUANTUM_FACTOR_MAX_N + 1):
        while m and m % k == 0:
            m //= k
    if m != 1:
        return None

    def search(p: LaurentPoly, last: tuple[int, int]):
        if p == LaurentPoly.one():
            return []
        if min(p.c.values()) < 0 or not p.is_bar_invariant():
            return None
        top = p.max_exp()
        for d in range(min(top, last[0]), 0, -1):
            cap = last[1] if d == last[0] else QUANTUM_FACTOR_MAX_N
            for n in range(min(cap, top // d + 1), 1, -1):
                try:
                    q = p.exact_div(LaurentPoly.qint(n, d))
                except ExactDivisionError:
                    continue
                rest = search(q, (d, n))
                if rest is not None:
                    return rest + [(n, d)]
        return None

    return search(p, (p.max_exp(), QUANTUM_FACTOR_MAX_N))


def factor_quantum(p: LaurentPoly, d_labels: dict[int, int] | None = None) -> str:
    """Human rendering like "[2]_1[3]_1"; subscripts are node labels when a
    symmetrizer -> node map is supplied, else the raw q-powers."""
    fac = quantum_factors(p)
    if fac is None:
        return f"({p})"
    if not fac:
        return "1"
    bits = []
    for n, d in fac:
        sub = d_labels.get(d, d) if d_labels else d
        bits.append(f"[{n}]_{sub}")
    return "".join(bits)


def _divide(rem: dict[int, int], den: LaurentPoly, last: int) -> dict[int, int]:
    """The quotient of rem by den, swept lowest term first up to exponent last.

    Each nonzero coefficient of rem at e <= last gives one quotient term and
    is cleared; what lies above last stays in rem.  Raises
    ExactDivisionError where a coefficient is not divisible by den's lowest.
    """
    e0 = den.min_exp()
    c0 = den.c[e0]
    quo: dict[int, int] = {}
    # a quotient term clears rem at e and changes it only above e, so one
    # ordered sweep meets every term
    for e in range(min(rem, default=last + 1), last + 1):
        a = rem.pop(e, 0)
        if not a:
            continue
        f, r = divmod(a, c0)
        if r:
            raise ExactDivisionError(f"coefficient {a} not divisible by {c0}")
        quo[e - e0] = f
        for eo, ao in den.c.items():
            if eo != e0:
                k = e - e0 + eo
                rem[k] = rem.get(k, 0) - f * ao
    return quo


def series(num: LaurentPoly, den: LaurentPoly, trunc: int) -> dict[int, int]:
    """Coefficients of num / den up to q^trunc; den's lowest term must be +-q^e."""
    e0 = den.min_exp()
    if den.c[e0] not in (1, -1):
        raise ExactDivisionError("series division needs a unit lowest term")
    # numerator terms above trunc + e0 only feed quotient terms above trunc
    last = trunc + e0
    return _divide({e: a for e, a in num.c.items() if e <= last}, den, last)
