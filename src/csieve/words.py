"""Words over the positive integers: statistics and necklaces.

A word is a tuple of letters >= 1.  All statistic outputs use 1-based
positions.  Compositions are plain tuples of non-negative integers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import sub
from typing import Iterable, Iterator

Word = tuple[int, ...]
Composition = tuple[int, ...]


def as_word(letters: Iterable[int]) -> Word:
    w = tuple(int(x) for x in letters)
    if any(x < 1 for x in w):
        raise ValueError("word letters must be >= 1")
    return w


# ---------------------------------------------------------------------------
# compositions

def is_strong(alpha: Iterable[int]) -> bool:
    alpha = tuple(alpha)
    return all(a > 0 for a in alpha)


def pad_to(alpha: Iterable[int], length: int) -> Composition:
    alpha = tuple(alpha)
    if len(alpha) > length:
        raise ValueError(f"composition longer than {length}")
    return alpha + (0,) * (length - len(alpha))


def strong_compositions(n: int, parts: int) -> Iterator[Composition]:
    """All strong compositions of n into exactly `parts` positive parts, in
    lexicographic order: the gaps between 0, parts - 1 cut points chosen
    from 1..n-1, and n."""
    if n < parts or parts == 0:
        if n == parts == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(1, n), parts - 1):
        yield tuple(map(sub, cuts + (n,), (0,) + cuts))


# ---------------------------------------------------------------------------
# statistics

def content(w: Iterable[int]) -> Composition:
    """Composition whose j-th part counts occurrences of the letter j."""
    w = tuple(w)
    if not w:
        return ()
    parts = [0] * max(w)
    for x in w:
        parts[x - 1] += 1
    return tuple(parts)


def descent_set(w) -> set[int]:
    """Positions i (1-based, i < n) with w_i > w_{i+1}."""
    return {i for i in range(1, len(w)) if w[i - 1] > w[i]}


def cyclic_descent_set(w) -> set[int]:
    """Descent positions, plus n when w_n > w_1."""
    s = descent_set(w)
    if w and w[-1] > w[0]:
        s.add(len(w))
    return s


def des(w) -> int:
    """Number of descents, counted in one pass over the letters."""
    count = 0
    prev = w[0] if w else 0
    for x in w:
        if prev > x:
            count += 1
        prev = x
    return count


def cdes(w) -> int:
    """Number of cyclic descents: the descents, plus one when w_n > w_1."""
    return des(w) + (w[-1] > w[0]) if w else 0


def maj(w) -> int:
    """Major index: the sum of the descent positions, added up in one pass
    over the letters (x at 0-based index i closes the descent at 1-based
    position i when the letter before it is larger)."""
    total = 0
    i = 0
    prev = w[0] if w else 0
    for x in w:
        if prev > x:
            total += i
        prev = x
        i += 1
    return total


def inv(w) -> int:
    """Number of inverted pairs i < j with w_i > w_j, counted pair by pair
    (O(n^2) comparisons, with no per-letter slice or tally)."""
    total = 0
    for a, b in itertools.combinations(w, 2):
        if a > b:
            total += 1
    return total


def cdt(w) -> Composition:
    """Cyclic descent type: new cyclic descents at each step of the
    letter-by-letter filtration.  Length equals the maximum letter; the
    first entry is always 0.  Level l makes one scan of w over its letters
    <= l, counting the falls between consecutive such letters and the
    wrap from the last one to the first; 0 marks "none seen yet", as
    letters are >= 1."""
    w = tuple(w)
    if not w:
        return ()
    out = []
    prev = 0
    for level in range(1, max(w) + 1):
        falls = first = last = 0
        for x in w:
            if x <= level:
                if not last:
                    first = x
                elif last > x:
                    falls += 1
                last = x
        if last > first:
            falls += 1
        out.append(falls - prev)
        prev = falls
    return tuple(out)


# ---------------------------------------------------------------------------
# necklaces

def necklace(w: Iterable[int]) -> tuple[Word, int]:
    """(least rotation, period) of the necklace of w, the pair `necklaces`
    yields for it, from one pass over the rotations of w: the period is
    the first step whose rotation is w again, and the least of the
    rotations before it is the least of all."""
    w = tuple(w)
    least = w
    for s in range(1, len(w)):
        r = w[s:] + w[:s]
        if r == w:
            return least, s
        if r < least:
            least = r
    return least, len(w) or 1


def flex_per_orbit(pairs: Iterable[tuple[Word, int]]) -> dict[Word, int]:
    """flex of every rotation of each necklace, given as (least rotation,
    period) pairs: each of the p distinct rotations gets its frequency
    n / p times its index among the rotations in lexicographic order."""
    out: dict[Word, int] = {}
    for w, p in pairs:
        f = len(w) // p
        rotations = sorted(w[s:] + w[:s] for s in range(p))
        out.update((u, f * i) for i, u in enumerate(rotations))
    return out


def flex(w) -> int:
    """freq(w) * lex(w), a universal cyclic sieving statistic: the
    frequency n / period times the 0-based index of w among its distinct
    rotations in lexicographic order."""
    w = tuple(w)
    return flex_per_orbit((necklace(w),))[w]


# ---------------------------------------------------------------------------
# enumeration

def _counts(alpha: Iterable[int]) -> list[int]:
    counts = [int(a) for a in alpha]
    if any(a < 0 for a in counts):
        raise ValueError("content parts must be non-negative")
    return counts


def enumerate_by_content(alpha: Iterable[int]) -> Iterator[Word]:
    """All words with content alpha, in lexicographic order: each word
    from the last by the lexicographic successor (Knuth, TAOCP 7.2.1.2,
    Algorithm L)."""
    word = [j for j, a in enumerate(_counts(alpha), 1) for _ in range(a)]
    n = len(word)
    while True:
        yield tuple(word)
        # the rightmost ascent j; the suffix after it is weakly decreasing
        j = n - 2
        while j >= 0 and word[j] >= word[j + 1]:
            j -= 1
        if j < 0:
            return
        # swap in the least larger letter of the suffix, then make the
        # suffix increasing
        i = n - 1
        while word[j] >= word[i]:
            i -= 1
        word[j], word[i] = word[i], word[j]
        word[j + 1:] = word[:j:-1]


def _fkm(counts: list[int], first: int, n: int) -> Iterator[tuple[Word, int]]:
    """(least rotation, period) of every necklace of length n >= 1 whose
    least letter is `first`, in lexicographic order, where letter j may
    be used counts[j - 1] more times after the leading `first`.  A
    depth-first walk of the prenecklaces, kept in arrays rather than on
    the call stack (so any n fits): word[:t] is the current prenecklace,
    lyndon[t] the length of its longest Lyndon prefix, and j the next
    letter to try at position t.  A prenecklace of length n whose longest
    Lyndon prefix p divides n is a necklace of period p."""
    if n == 1:
        yield (first,), 1
        return
    k = len(counts)
    avail = [0] + counts                # avail[j]: uses of letter j left
    word = [first] * n
    lyndon = [1] * n
    t, j = 1, first
    while True:
        while j <= k and not avail[j]:
            j += 1
        if j > k:
            # every letter at position t is done: take back the one before
            t -= 1
            if not t:
                return
            j = word[t]
            avail[j] += 1
            j += 1
            continue
        word[t] = j
        p = lyndon[t]
        if j != word[t - p]:
            p = t + 1
        if t < n - 1:
            avail[j] -= 1
            t += 1
            lyndon[t] = p
            j = word[t - p]
        else:
            if n % p == 0:
                yield tuple(word), p
            j += 1


def necklaces(alpha: Iterable[int]) -> Iterator[tuple[Word, int]]:
    """(least rotation, period) of every necklace of content alpha, in
    lexicographic order: the fixed-content FKM algorithm (Sawada 2003,
    "A fast algorithm to generate necklaces with fixed content").  The
    period is the number of distinct rotations; the empty content has one
    necklace, the empty word, with one rotation."""
    counts = _counts(alpha)
    n = sum(counts)
    if n == 0:
        yield (), 1
        return
    first = next(j for j, a in enumerate(counts, 1) if a)
    counts[first - 1] -= 1
    yield from _fkm(counts, first, n)


def necklaces_over(k: int, n: int) -> Iterator[Word]:
    """The least rotation of every necklace of length n >= 1 over the
    letters 1..k, in lexicographic order (FKM; Cattell, Ruskey, Sawada,
    Serra and Miers 2000): by least letter, with every letter available
    n times."""
    for first in range(1, k + 1):
        for w, _ in _fkm([n] * k, first, n):
            yield w


# Each table below keeps its last content (a tuple), so a sweep's instances
# of one content share one enumeration; it hands out tuples and frozensets.

@lru_cache(maxsize=1)
def necklace_classes(alpha) -> dict[Composition, tuple[tuple[Word, int], ...]]:
    """The (least rotation, period) of every necklace of the content,
    grouped by cyclic descent type padded to len(alpha) = m, each group in
    the order of `necklaces`; cdt is invariant under rotation, so it is
    taken once per necklace.  Level l of cdt reads only the letters <= l,
    so levels 1..m-1 are cdt of the necklace without its letters m, taken
    once per distinct such restriction and padded to m - 1, and level m
    is what is left of the necklace's cyclic descents."""
    m = len(alpha)
    if not m:
        return {(): tuple(necklaces(alpha))}
    lower: dict[Word, tuple] = {}    # restriction -> (its levels, their sum)
    classes: dict[Composition, list[tuple[Word, int]]] = {}
    for w, p in necklaces(alpha):
        restriction = tuple([x for x in w if x < m])
        known = lower.get(restriction)
        if known is None:
            levels = pad_to(cdt(restriction), m - 1)
            known = lower[restriction] = levels, sum(levels)
        classes.setdefault(known[0] + (cdes(w) - known[1],), []).append((w, p))
    return {delta: tuple(members) for delta, members in classes.items()}


@lru_cache(maxsize=1)
def cdt_groups(alpha) -> dict[Composition, tuple[Word, ...]]:
    """All words of the content, grouped by cyclic descent type padded to
    len(alpha), the keys in the order of necklace_classes: each class is
    the distinct rotations of each of its necklaces in turn, the necklaces
    in the order of `necklaces`, each from its least rotation.  The first
    word of a class is its least; the rest are not sorted."""
    return {delta: tuple([w[i:] + w[:i] for w, p in members for i in range(p)])
            for delta, members in necklace_classes(alpha).items()}


@lru_cache(maxsize=1)
def words_ending_in_one(alpha) -> dict[Composition, frozenset[Word]]:
    """The words of strong content alpha that end in 1, grouped by cyclic
    descent type: the rotations ending in 1 of each necklace of a class of
    necklace_classes, which is brute-force enumeration (FKM and cdt),
    independent of insertion."""
    return {delta: frozenset([w[i:] + w[:i] for w, p in members for i in range(p)
                              if w[i - 1] == 1])
            for delta, members in necklace_classes(alpha).items()}
