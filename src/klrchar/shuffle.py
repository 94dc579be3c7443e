"""The quantum shuffle algebra on words, with bar involution and restriction.

A shuffle element is a sparse dict word -> LaurentPoly.  The product of two
words sums q^{deg(w; ij)} w(ij) over all interleavings; deg counts crossing
pairs weighted by minus the form on the letters.  Single word-pair products
are enumerated depth first from an explicit stack.

`shuffle` and `q_commutator` share one pass over the word pairs, which adds
into raw exponent dicts that become Laurent polynomials once, at the end.
`q_commutator(a, b, s) = a o b - q^s (b o a)` enumerates each pair once: by
the bar twist bar(u o v) = q^{(|u|,|v|)} (v o u), it reads the exponents of
v o u off those of u o v.  It is the one rank-two building block: the solve
for dual root vectors divides it, and the length-two check compares it with
the root character it produces.

Only `shuffle` memoizes word-pair products, in the root system's
`_shuffle_pair_cache`: the products of dual PBW monomials along Kostant
partitions meet the same pairs again.  A q-commutator's pairs do not recur,
since the solves that call it are memoized on their inputs (pbw.py).

`shuffle_letters` is the one fold for shuffles of single letters: it gives
the numerator of every projective character, of the graded dimension of
H(alpha) and of a resolution's Euler characteristic.
"""

from __future__ import annotations

from .cartan import RootSystem
from .convex import Word
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
    """Shuffle of two single words; exponents as raw dicts."""
    B = rs.bilinear_matrix
    m, n = len(i), len(j)
    # crossing cost of pulling j[b] in front of the rest of i starting at a
    suffix_cost = [[0] * n for _ in range(m + 1)]
    for b in range(n):
        jb = j[b] - 1
        acc = 0
        for a in range(m - 1, -1, -1):
            acc -= B[i[a] - 1][jb]
            suffix_cost[a][b] = acc
    out: dict[Word, dict[int, int]] = {}
    # depth first, the branch taking i[a] before the one taking j[b]
    stack = [(0, 0, (), 0)]
    while stack:
        a, b, prefix, exp = stack.pop()
        if a == m or b == n:
            word = prefix + i[a:] + j[b:]
            d = out.get(word)
            if d is None:
                out[word] = {exp: 1}
            else:
                d[exp] = d.get(exp, 0) + 1
            continue
        stack.append((a, b + 1, prefix + (j[b],), exp + suffix_cost[a][b]))
        stack.append((a + 1, b, prefix + (i[a],), exp))
    return out


def _memo_pair_shuffle(i: Word, j: Word, rs: RootSystem) -> dict[Word, dict[int, int]]:
    """_pair_shuffle through the root system's word-pair memo."""
    hit = rs._shuffle_pair_cache.get((i, j))
    if hit is None:
        hit = rs._shuffle_pair_cache[(i, j)] = _pair_shuffle(i, j, rs)
    return hit


def _finish(acc: dict[Word, dict[int, int]]) -> ShuffleElement:
    """Raw exponent dicts to an element, dropping zero terms and zero words."""
    out: ShuffleElement = {}
    for w, d in acc.items():
        c = {k: v for k, v in d.items() if v}
        if c:
            out[w] = LaurentPoly(c)
    return out


def _shuffle_pass(a: ShuffleElement, b: ShuffleElement, rs: RootSystem,
                  s: int | None) -> ShuffleElement:
    """a o b, or with s given a o b - q^s (b o a), in one pass over the word pairs.

    By the bar twist bar(u o v) = q^{(|u|,|v|)} (v o u), an interleaving with
    exponent e in u o v has exponent -(|u|,|v|) - e in v o u, so each pair
    (u, v) is enumerated once for both products.
    """
    B = rs.bilinear_matrix
    twist = s is not None
    pair = _pair_shuffle if twist else _memo_pair_shuffle
    # (|u|,|v|) is the sum of (B|v|)_x over the letters x of u
    b_form = {v: [sum(B[y - 1][x] for y in v) for x in range(rs.rank)] for v in b}
    acc: dict[Word, dict[int, int]] = {}
    for u, cu in a.items():
        for v, cv in b.items():
            c = list((cu * cv).c.items())
            if not c:
                continue
            if twist:
                t = s - sum(b_form[v][x - 1] for x in u)
            for word, exps in pair(u, v, rs).items():
                d = acc.get(word)
                if d is None:
                    d = acc[word] = {}
                for e, n in exps.items():
                    for k, x in c:
                        f, x = k + e, n * x
                        d[f] = d.get(f, 0) + x
                        if twist:
                            f = k + t - e
                            d[f] = d.get(f, 0) - x
    return _finish(acc)


def shuffle(a: ShuffleElement, b: ShuffleElement, rs: RootSystem) -> ShuffleElement:
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


def q_commutator(a: ShuffleElement, b: ShuffleElement, s: int,
                 rs: RootSystem) -> ShuffleElement:
    """a o b - q^s (b o a), each word pair of a and b enumerated once."""
    return _shuffle_pass(a, b, rs, s)


def shuffle_letters(terms: ShuffleElement, rs: RootSystem) -> ShuffleElement:
    """sum of c (w_1 o w_2 o ... o w_n) over the words w of terms, c = terms[w].

    With x_p the part of the sum below the prefix p, x_p = sum_a (a) o x_{pa};
    the prefixes are peeled from the longest down, so words that share a
    prefix shuffle it once.  Inserting a after the first t letters of u costs
    q^{-sum_{k<t} (a, u_k)}.  Coefficients stay raw exponent dicts until the end.
    """
    B = rs.bilinear_matrix
    nodes: dict[Word, dict[Word, dict[int, int]]] = {(): {}}
    for w, c in terms.items():
        for k in range(len(w) + 1):
            nodes.setdefault(tuple(w[:k]), {})
        nodes[tuple(w)][()] = dict(c.c)
    for p in sorted(nodes, key=len, reverse=True)[:-1]:
        parent, row, a = nodes[p[:-1]], B[p[-1] - 1], p[-1:]
        for u, exps in nodes.pop(p).items():
            e = 0
            for t in range(len(u) + 1):
                if t:
                    e -= row[u[t - 1] - 1]
                acc = parent.setdefault(u[:t] + a + u[t:], {})
                for k, v in exps.items():
                    acc[k + e] = acc.get(k + e, 0) + v
    return _finish(nodes[()])


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
    total = [0] * rs.rank
    for p in parts:
        for k in range(rs.rank):
            total[k] += p[k]
    out: dict[tuple[Word, ...], LaurentPoly] = {}
    for word, coeff in a.items():
        if word_weight(word, rs) != tuple(total):
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
        if ok:
            key = tuple(blocks)
            cur = out.get(key)
            out[key] = coeff if cur is None else cur + coeff
    return {k: v for k, v in out.items() if v}


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
    return [
        {"word": render_word(w), "coeff": a[w].to_json()}
        for w in sorted(a)
        if a[w]
    ]


def sh_dim(a: ShuffleElement) -> LaurentPoly:
    """Total graded dimension: sum of all word coefficients."""
    out = LaurentPoly.zero()
    for c in a.values():
        out = out + c
    return out

