"""The quantum shuffle algebra on words, with bar involution and restriction.

A shuffle element is a sparse mapping word -> LaurentPoly.  The product of
two words sums q^{deg(w; ij)} w(ij) over all interleavings; deg counts
crossing pairs weighted by minus the form on the letters.  A single
word-pair product (`_pair_shuffle`) places the letters of the shorter word
left to right among those of the longer one, whichever operand it is,
editing one list from each placement to the next.

Every coefficient here but in `_pair_shuffle`'s output is packed (`Packed`):
a word's Laurent polynomial sum a_e q^e is the one integer
sum a_e 2^{K (e + o)}, a Kronecker substitution q = 2^K.  Adding
coefficients is then integer addition, and the product of two is one
integer product, so each word of each pair product costs one multiply-add.
Two algorithms run on them: the pair kernel `_shuffle_pass` of `shuffle`
and `q_commutator`, and the letter fold `shuffle_letters`.  The packing of
a product is exact because its width and offset come from proven bounds:
every exponent of a product is at least the sum of its operands' lowest
exponents and of minus the positive part of the form over the letter
pairs, so the offset o makes every slot non-negative; and the absolute
values of all coefficients of a o b sum to at most
|a|_1 |b|_1 C(m + n, m), so the slot width K, from `slot_width`, holds each
of them as a balanced digit.  Only the result has to fit: packing is
linear, so the integers may pass through any intermediate value.  A
product whose bound outgrows its operands' width repacks them wider; no
width is ever chosen below its bound.  All three return a read-only
`Packed` mapping, which decodes a word's coefficient when it is read.

The packed format stays inside this module.  `Packed.for_product` packs
the first factor of a chain of products at the width of the whole chain,
`Packed.div_one_minus_qk` divides packed coefficients by 1 - q^k as
integers, and `sh_sub_scaled` adds up a - sum c b packed and decodes only
the words that survive.  Both decode each distinct int once, to one
LaurentPoly that every word holding that int shares: within one call the
width and offset are fixed, so equal ints are equal polynomials.  Sharing
changes no value, as nothing writes a LaurentPoly's `.c` once it is built
(tests/test_laurent.py checks that).

`q_commutator(a, b, s) = a o b - q^s (b o a)` enumerates each pair once: by
the bar twist bar(u o v) = q^{(|u|,|v|)} (v o u), the twisted half is the
packed bar of each pair product.  An interleaving of exponent e then adds
q^e - q^(t - e), t = s - (|u|,|v|), which is 0 at the centre e = t / 2, so
a word whose interleavings all sit there, or cancel about it, is never
added.  A pair with a one-letter word takes no pair product: the letter is
inserted slot by slot, the step Leclerc's quantum-shuffle construction of
dual PBW bases iterates.  It is the one rank-two building block: the solve
for dual root vectors divides it, and the length-two check compares it
with the root character it produces.

Only `shuffle` memoizes word-pair products, packed, in the root system's
`_shuffle_pair_cache`, keyed by the pair, the width and the offset: the
products of dual PBW monomials along Kostant partitions meet the same pairs
again.  Each word of a new entry goes through the root system's
`_shuffle_words`, so equal words of all entries are one tuple; the products
built from the entries, and the canonical characters built from those,
hold these tuples too.  A q-commutator's pairs do not recur, since the
solves that call it are memoized on their inputs (pbw.py).
`drop_pair_memo` empties the memo and its words; its docstring says how
long they live.

`shuffle_letters` is the one fold for shuffles of single letters: it gives
the numerator of every projective character, of the graded dimension of
H(alpha) and of a resolution's Euler characteristic.  It inserts one letter
at a time, each insertion one shift of a packed integer.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Mapping
from functools import reduce
from itertools import accumulate
from math import comb, factorial
from operator import or_

from .cartan import RootSystem
from .convex import Word
from .kostant import sum_weight
from .laurent import LaurentPoly

ShuffleElement = dict  # Word -> LaurentPoly


def word_weight(word: Word, rs: RootSystem):
    w = [0] * rs.rank
    for i in word:
        w[i - 1] += 1
    return tuple(w)


def deg_stat(w_perm: tuple[int, ...], word: Word, rs: RootSystem) -> int:
    """deg(w; word) = minus the sum of the form over inversion pairs."""
    B = rs.bilinear_matrix
    total = 0
    n = len(word)
    for j in range(n):
        for k in range(j + 1, n):
            if w_perm[j] > w_perm[k]:
                total -= B[word[j] - 1][word[k] - 1]
    return total


def _pair_shuffle(i: Word, j: Word, rs: RootSystem) -> dict[Word, dict[int, int]]:
    """Shuffle of two single words: {word: {exponent: interleavings}}.

    The letters of the shorter word are placed left to right among those of
    the longer one, at slots a_0 <= a_1 <= ..., a_t the number of letters of
    the longer word in front of letter t, lexicographic over the slots.
    When i is the shorter word, that is the order of the interleavings
    taking i[a] before j[b].  The word is one list: the next slots mostly
    move the last letter one slot on, a swap with the letter it passes (none
    where the two are equal, as the word stays), and otherwise move an
    earlier letter on and rewrite the word's tail from slices.
    """
    B = rs.bilinear_matrix
    short, long = (i, j) if len(i) <= len(j) else (j, i)
    k, n = len(short), len(long)
    if not k:
        return {long: {0: 1}}
    # cost[t][a]: minus the form of letter t at slot a with the letters it
    # crosses, those of j in front of a letter of i: a letter of i at slot a
    # follows j[:a], and a letter of j at slot a precedes i[a:]: prefix sums
    # when i is the shorter word, suffix sums when j is
    if short is i:
        cost = [list(accumulate([-B[x - 1][y - 1] for y in long], initial=0)) for x in short]
    else:
        cost = [list(accumulate([-B[x - 1][y - 1] for y in reversed(long)], initial=0))[::-1]
                for x in short]
    # slot[t] for the letters but the last, whose slot is s; part[t] is the
    # exponent of the letters in front of t
    last, y, c = k - 1, short[-1], cost[-1]
    slot = [0] * last
    part = list(accumulate([r[0] for r in cost[:last]], initial=0))
    s = 0
    word = [*short, *long]
    # d is the dict of the current word
    d = {part[last] + c[0]: 1}
    out: dict[Word, dict[int, int]] = {tuple(word): d}
    get = out.get
    while True:
        if s != n:
            # the last letter passes the letter x of the longer word
            p = s + last
            x = word[p + 1]
            s += 1
            e = part[last] + c[s]
            if x == y:
                # the word stays
                d[e] = d.get(e, 0) + 1
                continue
            word[p], word[p + 1] = x, y
        else:
            # the rightmost earlier letter that can move on does; the letters
            # after it restart at its new slot
            t = last - 1
            while t >= 0 and slot[t] == n:
                t -= 1
            if t < 0:
                return out
            s = slot[t] + 1
            word[s + t - 1:] = long[s - 1:s] + short[t:] + long[s:]
            slot[t:] = [s] * (last - t)
            for r in range(t, last):
                part[r + 1] = part[r] + cost[r][s]
            e = part[last] + c[s]
        w = tuple(word)
        d = get(w)
        if d is None:
            d = out[w] = {e: 1}
        else:
            d[e] = d.get(e, 0) + 1


def _memo_pair_shuffle(i: Word, j: Word, rs: RootSystem, width: int,
                       offset: int) -> dict[Word, int]:
    """_pair_shuffle packed at (width, offset), through the root system's memo.

    The memo is keyed by (i, j, width, offset), everything an entry depends on.
    Each word of a new entry goes through the root system's word dict, so
    equal words of all entries are one tuple.
    """
    key = i, j, width, offset
    hit = rs._shuffle_pair_cache.get(key)
    if hit is None:
        share = rs._shuffle_words.setdefault
        hit = rs._shuffle_pair_cache[key] = {share(w, w): pack(d, width, offset)
                                             for w, d in _pair_shuffle(i, j, rs).items()}
    return hit


def drop_pair_memo(rs: RootSystem) -> None:
    """Empty the root system's word-pair memo and its word dict.

    A canonical table, and pbw.dim_formula, call this when they have
    finished a weight, so the memo lives for one weight's products.  Their
    pairs recur among that weight's partitions; kept longer, the memo grows
    with every weight.  The memo belongs to the root system, so everything
    on it loses the pairs and recomputes them when it meets them again; no
    result changes.
    """
    rs._shuffle_pair_cache.clear()
    rs._shuffle_words.clear()


# -- packed coefficients -------------------------------------------------------

def slot_width(bound: int) -> int:
    """The slot width K for coefficients of absolute value at most bound.

    A slot holds a balanced digit in [-2^(K-1), 2^(K-1) - 1], so K is at
    least the bound's bit length plus a sign bit.  It is rounded up to 8,
    16, 32 or 64 bits, which unpack reads as machine integers, and past 64
    bits to a multiple of 64.  Read as machine integers, the digits of the
    solves and tables decode about 2.5 times faster than as byte slices of
    the narrowest whole-byte width (BENCH_17.json).
    """
    bits = bound.bit_length() + 1
    return 8 << max(0, (bits - 1).bit_length() - 3) if bits <= 64 else -(-bits // 64) * 64


def pack(c: dict[int, int], width: int, offset: int) -> int:
    """sum of a 2^(width (e + offset)) over the terms a q^e; e + offset >= 0."""
    return sum(a << width * (e + offset) for e, a in c.items())


_ITEM_CODES = {array(code).itemsize: code for code in "QLIHB"}


def _bias(width: int, slots: int) -> int:
    """2^(width - 1) in each of the given number of slots."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * slots, "little")


def unpack(x: int, width: int, offset: int) -> dict[int, int]:
    """The balanced digits of x: the inverse of pack when every coefficient fits.

    Adding 2^(width - 1) to each digit in [-2^(width - 1), 2^(width - 1))
    makes it a plain unsigned one, so the slots are read off the bytes of one
    integer.  The slot count leaves room for the top digit's carry.
    """
    if not x:
        return {}
    slots = (x.bit_length() + 1) // width + 1
    step = width // 8
    data = (x + _bias(width, slots)).to_bytes(slots * step, "little")
    code = _ITEM_CODES.get(step)
    if code is None:
        digits = [int.from_bytes(data[k:k + step], "little")
                  for k in range(0, len(data), step)]
    else:
        digits = array(code, data)
        if sys.byteorder == "big":
            digits.byteswap()
    half = 1 << (width - 1)
    return {e - offset: d - half for e, d in enumerate(digits) if d != half}


def _decoder(width: int, offset: int):
    """x -> LaurentPoly(unpack(x, width, offset)), decoding each distinct x once."""
    seen: dict[int, LaurentPoly] = {}

    def decode(x: int) -> LaurentPoly:
        c = seen.get(x)
        if c is None:
            c = seen[x] = LaurentPoly(unpack(x, width, offset))
        return c
    return decode


def l1_norm(a: ShuffleElement) -> int:
    """The sum of the absolute values of all coefficients of all words."""
    if isinstance(a, Packed):
        return a.bound
    return sum(abs(x) for p in a.values() for x in p.c.values())


class Packed(Mapping):
    """A shuffle element whose coefficients are Kronecker-packed ints.

    The coefficient of a word is sum of a_e 2^(width (e + offset)), one
    integer per word, so adding and multiplying coefficients is integer
    arithmetic.  bound is at least the sum of the absolute values of all
    coefficients, and width is at least slot_width(bound), so every
    coefficient reads back exactly.  A word's LaurentPoly is decoded when
    the word is looked up; the ints hold no zero word.
    """

    __slots__ = ("ints", "width", "offset", "bound")

    def __init__(self, ints: dict[Word, int], width: int, offset: int, bound: int):
        self.ints = ints
        self.width = width
        self.offset = offset
        self.bound = bound

    @classmethod
    def of(cls, a: ShuffleElement, width: int = 0, norm: int | None = None) -> "Packed":
        """a, packed at width or at the narrowest width its norm allows.

        norm, when given, is l1_norm(a).
        """
        if isinstance(a, Packed):
            return a.repacked(max(width, a.width), a.offset)
        bound = l1_norm(a) if norm is None else norm
        width = max(width, slot_width(bound))
        offset = -min((min(p.c) for p in a.values() if p), default=0)
        return cls({w: pack(p.c, width, offset) for w, p in a.items() if p},
                   width, offset, bound)

    @classmethod
    def for_product(cls, factors: list[ShuffleElement], shift: int = 0) -> "Packed":
        """q^shift f_1, packed at the width of the product f_1 o f_2 o ... o f_n.

        prod_k |f_k|_1 times the multinomial coefficient of the factors' word
        lengths bounds the product, and the bound of every partial product
        f_1 o ... o f_k is at most that, so shuffling in f_2, ..., f_n in
        turn never repacks.  The shift moves the offset, not the integers.
        """
        bound, length = 1, 0
        for f in factors:
            m = max(map(len, f), default=0)
            length += m
            bound *= l1_norm(f) * comb(length, m)
        first = cls.of(factors[0], slot_width(bound))
        return cls(first.ints, first.width, first.offset - shift, first.bound)

    def repacked(self, width: int, offset: int) -> "Packed":
        """The same element at a width and an offset no smaller than its own."""
        if width == self.width and offset == self.offset:
            return self
        return Packed({w: pack(unpack(x, self.width, self.offset), width, offset)
                       for w, x in self.ints.items()}, width, offset, self.bound)

    def div_one_minus_qk(self, k: int, shift: int = 0):
        """(w, q^shift a[w] / (1 - q^k)) for each word w, k > 0, as integers.

        The quotient is None where 1 - q^k does not divide.  Exactness.  Let
        x = a[w] and P = q^offset x, a polynomial with X = P(2^K) the packed
        integer.  P = (q^k - 1) Q + R with R of degree below k, and each
        coefficient of R is a sum of coefficients of x, so R's coefficients
        are at most |x|_1 <= bound < 2^(K-1) in absolute value.  Then
        |R(2^K)| < 2^(Kk) - 1, so X is a multiple of 1 - 2^(Kk) exactly when
        R(2^K) = 0, that is when R = 0, as its digits fit their slots: the
        remainder of the integer division decides.  An exact quotient y has
        y_e = sum over j >= 0 of x_(e - jk), again at most |x|_1, so the
        integer quotient decodes to y.  Equal quotients decode to one object.
        """
        one = 1 - (1 << self.width * k)
        decode = _decoder(self.width, self.offset - shift)
        for w, x in self.ints.items():
            y, r = divmod(x, one)
            yield w, None if r else decode(y)

    def __getitem__(self, w: Word) -> LaurentPoly:
        return LaurentPoly(unpack(self.ints[w], self.width, self.offset))

    def __contains__(self, w) -> bool:
        return w in self.ints

    def __iter__(self):
        return iter(self.ints)

    def __len__(self) -> int:
        return len(self.ints)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _shuffle_pass(a: ShuffleElement, b: ShuffleElement, rs: RootSystem,
                  s: int | None) -> Packed:
    """a o b, or with s given a o b - q^s (b o a), in one pass over the word pairs.

    Exactness.  An interleaving of u and v has exponent
    e = -sum of (x, y) over the crossed letter pairs x of u and y of v, so
    -pos <= e <= neg, with pos and neg the sums of the positive and of the
    negated negative values of the form over all such pairs; both depend on
    the weights of u and v alone.  The result's offset makes the lowest of
    these slots non-negative.  The absolute values of all coefficients of
    a o b sum to at most |a|_1 |b|_1 C(m + n, m), C(m + n, m) counting the
    interleavings of words of lengths m and n, and to twice that with the
    twisted half; that is the result's bound, the width holds it, or the
    operands' width if it is wider, and an operand packed narrower is
    repacked.

    By the bar twist bar(u o v) = q^{(|u|,|v|)} (v o u), an interleaving with
    exponent e in u o v has exponent -(|u|,|v|) - e in v o u, so each pair
    (u, v) is enumerated once for both products: the twisted half is the
    packed bar of the pair product.  An interleaving of exponent e then adds
    q^e - q^(t - e) at its word, t = s - (|u|,|v|); packed, that is D[e]
    of a row D built once per pair of weights, and a word's coefficient in
    the pair is the sum of n D[e] over its exponents e of n interleavings,
    one plain loop.  D[e] is 0 at the centre e = t / 2, so a word with every
    interleaving there sums to 0, and so do many words of a rank-two solve,
    their exponents symmetric about t / 2; a word whose sum is 0 is never
    added.  Only the whole sum decides: a word with one interleaving at the
    centre may have others.

    A pair in which u or v is one letter x takes the letter path: x goes
    into each slot t of the other word w, crossing w[:t] when it is u and
    w[t:] when it is v, its exponent one running sum.  The slots of a run
    of x give one word: D is summed over the run, and the word is built
    only if the sum is not 0.  D is 0 at the centre, so it is added there.
    """
    B = rs.bilinear_matrix
    twist = s is not None
    # a word's letters, sorted, stand for its weight
    ka = {u: tuple(sorted(u)) for u in a}
    kb = {v: tuple(sorted(v)) for v in b}
    # per pair of weights: (pos, neg, interleavings)
    forms = {}
    for x in set(ka.values()):
        for y in set(kb.values()):
            terms = [B[i - 1][j - 1] for i in x for j in y]
            forms[x, y] = (sum(t for t in terms if t > 0), -sum(t for t in terms if t < 0),
                           comb(len(x) + len(y), len(x)))
    if not forms:
        return Packed({}, 8, 0, 0)
    na, nb = l1_norm(a), l1_norm(b)
    bound = na * nb * max(f[2] for f in forms.values()) * (2 if twist else 1)
    width = max([slot_width(bound)] + [p.width for p in (a, b) if isinstance(p, Packed)])
    pa, pb = Packed.of(a, width, norm=na), Packed.of(b, width, norm=nb)
    # every pair product goes in at `top` slots above the operands' offsets:
    # e >= -pos, and the twisted t - e >= s - pos
    top = max(pos for pos, _, _ in forms.values()) + (max(0, -s) if twist else 0)
    if twist:
        # per pair of weights, D[e] = X^(e + top) - X^(t - e + top), X = 2^width,
        # and (|u|,|v|): the twisted exponent is t - e, t = s - (|u|,|v|), and both
        # slots are non-negative.  A negative e indexes D from its end
        rows = {}
        for key, (pos, neg, _) in forms.items():
            t = s - pos + neg
            rows[key] = ([(1 << width * (e + top)) - (1 << width * (t - e + top))
                          for e in [*range(neg + 1), *range(-pos, 0)]], pos - neg)
        negB = [[-c for c in r] for r in B]
    acc: dict[Word, int] = {}
    get = acc.get
    for u, A in pa.ints.items():
        for v, Bv in pb.ints.items():
            AB = A * Bv
            if twist:
                D, uv = rows[ka[u], kb[v]]
                if len(u) == 1 or len(v) == 1:
                    # at slot t the letter crosses w[:t] as u, w[t:] as v;
                    # its exponent, minus its form with them, is a running sum
                    if len(u) == 1:
                        letter, w, e, row = u, v, 0, negB[u[0] - 1]
                    else:
                        letter, w, e, row = v, u, -uv, B[v[0] - 1]
                    x, T = letter[0], 0
                    # a run of x is one word; the 0 appended to w ends the last
                    for t, y in enumerate((*w, 0)):
                        T += D[e]
                        if T and y != x:
                            word = w[:t] + letter + w[t:]
                            acc[word] = get(word, 0) + T * AB
                            T = 0
                        e += row[y - 1]
                    continue
                for word, exps in _pair_shuffle(u, v, rs).items():
                    T = 0
                    for e, n in exps.items():
                        T += n * D[e]
                    # a word that cancels inside its pair stays out of acc;
                    # only its whole sum decides
                    if T:
                        acc[word] = get(word, 0) + T * AB
            else:
                for word, P in _memo_pair_shuffle(u, v, rs, width, top).items():
                    acc[word] = get(word, 0) + P * AB
    ints = {w: x for w, x in acc.items() if x}
    # the slots below every word's lowest term are empty: shift them out
    bits = reduce(or_, ints.values(), 0)
    low = ((bits & -bits).bit_length() - 1) // width if bits else 0
    if low:
        ints = {w: x >> width * low for w, x in ints.items()}
    return Packed(ints, width, pa.offset + pb.offset + top - low, bound)


def shuffle(a: ShuffleElement, b: ShuffleElement, rs: RootSystem) -> Packed:
    return _shuffle_pass(a, b, rs, None)


def sh_word(word: Word) -> ShuffleElement:
    return {tuple(word): LaurentPoly.one()}


def sh_add(a: ShuffleElement, b: ShuffleElement) -> ShuffleElement:
    out = dict(a)
    for w, c in b.items():
        cur = out.get(w)
        s = c if cur is None else cur + c
        if s:
            out[w] = s
        elif w in out:
            del out[w]
    return out


def sh_scale(a: ShuffleElement, c: LaurentPoly | int) -> ShuffleElement:
    if isinstance(c, int):
        c = LaurentPoly.term(c)
    out = {}
    for w, p in a.items():
        s = p * c
        if s:
            out[w] = s
    return out


def sh_sub(a: ShuffleElement, b: ShuffleElement) -> ShuffleElement:
    return sh_add(a, sh_scale(b, -1))


def sh_sub_scaled(a: ShuffleElement,
                  terms: list[tuple[object, ShuffleElement, LaurentPoly]],
                  memo: dict) -> ShuffleElement:
    """a - sum of c b over the (key, b, c) of terms, added up packed.

    One integer multiply-add per word of each b; only the words of the
    result are decoded, equal coefficients to one object.  No coefficient
    of the result exceeds |a|_1 + sum of |c|_1 max|b| in absolute value,
    and the width holds that bound.  memo keeps each b's packings under its
    key, for callers that subtract the same b again; the caller decides how
    long it lives.
    """
    a = Packed.of(a)
    bound, offset = a.bound, a.offset
    for key, b, c in terms:
        if key not in memo:
            cs = [p.c for p in b.values() if p]
            # (max|b|, the offset that puts b's lowest exponent in slot 0,
            # {width: packed b})
            memo[key] = (max((abs(x) for d in cs for x in d.values()), default=0),
                         -min((min(d) for d in cs), default=0), {})
        top, low, _ = memo[key]
        bound += sum(map(abs, c.c.values())) * top
        if c:
            # c packs at offset - low, which its lowest term must not undercut
            offset = max(offset, low - min(c.c))
    width = max(a.width, slot_width(bound))
    acc = dict(a.repacked(width, offset).ints)
    get = acc.get
    for key, b, c in terms:
        _, low, by_width = memo[key]
        ints = by_width.get(width)
        if ints is None:
            ints = by_width[width] = {w: pack(p.c, width, low) for w, p in b.items() if p}
        C = pack(c.c, width, offset - low)
        for w, x in ints.items():
            acc[w] = get(w, 0) - C * x
    decode = _decoder(width, offset)
    return {w: decode(x) for w, x in acc.items() if x}


def q_commutator(a: ShuffleElement, b: ShuffleElement, s: int,
                 rs: RootSystem) -> Packed:
    """a o b - q^s (b o a), each word pair of a and b enumerated once."""
    return _shuffle_pass(a, b, rs, s)


def shuffle_letters(terms: ShuffleElement, rs: RootSystem) -> Packed:
    """sum of c (w_1 o w_2 o ... o w_n) over the words w of terms, c = terms[w].

    With x_p the part of the sum below the prefix p, x_p = sum_a (a) o x_{pa};
    the prefixes are peeled from the longest down, so words that share a
    prefix shuffle it once.  Inserting a after the first t letters of u is a
    shift by q^{-sum_{k<t} (a, u_k)}.  The n! interleavings bound the result
    by sum |c|_1 n!.  The offset lift - min(c), lift the positive part of the
    form over a word's letter pairs, keeps every partial sum's exponents at
    least -offset, so a negative shift drops only zero bits.
    """
    B = rs.bilinear_matrix
    terms = {tuple(w): c for w, c in terms.items() if c}
    lift = max((sum(max(0, B[a - 1][b - 1]) for k, a in enumerate(x) for b in x[k + 1:])
                for x in {tuple(sorted(w)) for w in terms}), default=0)
    bound = sum(sum(map(abs, c.c.values())) * factorial(len(w)) for w, c in terms.items())
    width = slot_width(bound)
    offset = lift - min((min(c.c) for c in terms.values()), default=0)
    nodes = {(): {}} | {w[:k]: {} for w in terms for k in range(len(w))}
    nodes |= {w: {(): pack(c.c, width, offset)} for w, c in terms.items()}
    for p in sorted(nodes, key=len, reverse=True)[:-1]:
        parent, row, a = nodes[p[:-1]], B[p[-1] - 1], p[-1:]
        for u, x in nodes.pop(p).items():
            e = 0
            for t in range(len(u) + 1):
                if t:
                    e -= row[u[t - 1] - 1]
                v = u[:t] + a + u[t:]
                parent[v] = parent.get(v, 0) + (x << width * e if e >= 0 else x >> -width * e)
    return Packed({w: x for w, x in nodes[()].items() if x}, width, offset, bound)


def words_of_weight(weight) -> list[Word]:
    """The distinct words of the given weight, in lexicographic order."""
    words: list[Word] = [()]
    for _ in range(sum(weight)):
        words = [w + (i + 1,) for w in words
                 for i, c in enumerate(weight) if w.count(i + 1) < c]
    return words


def sh_eq(a: ShuffleElement, b: ShuffleElement) -> bool:
    return {w: c.c for w, c in a.items() if c} == {w: c.c for w, c in b.items() if c}


def bar(a: ShuffleElement) -> ShuffleElement:
    return {w: c.bar() for w, c in a.items()}


def is_bar_invariant(a: ShuffleElement) -> bool:
    return all(c.is_bar_invariant() for c in a.values())


def restrict_character(a: ShuffleElement, parts, rs: RootSystem):
    """Coefficients of splitting each word into consecutive weight blocks.

    Returns a dict (word_1, ..., word_k) -> LaurentPoly; the character shadow
    of restriction to the given weight sequence.
    """
    parts = [tuple(p) for p in parts]
    total = sum_weight(parts, rs)
    out: dict[tuple[Word, ...], LaurentPoly] = {}
    for word, coeff in a.items():
        if word_weight(word, rs) != total:
            raise ValueError("weight mismatch between element and parts")
        pos = 0
        blocks = []
        ok = True
        for p in parts:
            ht = sum(p)
            block = word[pos:pos + ht]
            if word_weight(block, rs) != p:
                ok = False
                break
            blocks.append(block)
            pos += ht
        if ok and coeff:
            # the blocks concatenate to the word, so no two words share a key
            out[tuple(blocks)] = coeff
    return out


def render_word(w: Word) -> str:
    """Digits when every label is at most 9, else comma-separated labels.

    A lone label >= 10 keeps a trailing comma ('11,'), since '11' in digits
    is the word (1, 1).
    """
    if all(x <= 9 for x in w):
        return "".join(map(str, w))
    return ",".join(map(str, w)) + ("," if len(w) == 1 else "")


def parse_word(text: str) -> Word:
    """The inverse of render_word: digits ('2121') or labels ('9,10', '10,')."""
    labels = text.split(",") if "," in text else list(text)
    if len(labels) == 2 and labels[1] == "":
        labels.pop()
    try:
        return tuple(int(t) for t in labels)
    except ValueError:
        raise ValueError(f"{text!r} is not a word of node labels") from None


def sh_to_json(a: ShuffleElement) -> list[dict]:
    return [{"word": render_word(w), "coeff": c.to_json()} for w, c in sorted(a.items()) if c]


def sh_dim(a: Packed) -> LaurentPoly:
    """Total graded dimension: sum of all word coefficients."""
    # the sum is within the l1 bound, so it fits the width
    return LaurentPoly(unpack(sum(a.ints.values()), a.width, a.offset))

