"""Falls and runs, letter insertion, and the tree bijection.

A word with c cyclic descents decomposes into c maximal weakly increasing
cyclic segments (runs) and |w| - c maximal strictly decreasing cyclic
segments (falls); the constant word has no runs by convention.  Inserting a
new largest letter into chosen falls and runs builds up every word of a
given content and cyclic descent type exactly once, which yields a
bijection (phi) between such words ending in 1 and a product of subset and
multisubset label spaces.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import comb
from typing import Iterable, Iterator, Sequence

from .formulas import params
from .words import Word, as_word, cdes, content, cdt, is_strong

# A segment is a tuple of 1-based positions, cyclically consecutive in w.
Segment = tuple[int, ...]
# A phi image is a tuple of (fall_set, run_multiset) pairs for letters 2..m,
# each component a sorted tuple of integers.
PhiImage = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

# Helpers whose name starts with an underscore take an already validated
# Word; only the public functions call as_word.


def _fall_ends(w: Word) -> list[int]:
    """1-based positions p with w_p <= w_{p+1} (cyclically): each ends a fall."""
    n = len(w)
    return [p for p in range(1, n + 1) if w[p - 1] <= w[p % n]]


def _run_ends(w: Word) -> list[int]:
    """1-based cyclic descent positions: each ends a run."""
    n = len(w)
    return [p for p in range(1, n + 1) if w[p - 1] > w[p % n]]


def _segments(n: int, ends: list[int]) -> list[Segment]:
    """Cyclic segments of a word of length n ending at the ascending 1-based
    positions `ends`, indexed from the segment containing position 1, then
    left to right (that is, in the order of their ends)."""
    segs = []
    last = ends[-1] - n if ends else 0
    for e in ends:
        segs.append(tuple((p - 1) % n + 1 for p in range(last + 1, e + 1)))
        last = e
    return segs


def fall_segments(w) -> list[Segment]:
    w = as_word(w)
    return _segments(len(w), _fall_ends(w))


def run_segments(w) -> list[Segment]:
    w = as_word(w)
    return _segments(len(w), _run_ends(w))   # constant word: no descents, no runs


# ---------------------------------------------------------------------------
# one letter at a time, for any word and letter

def _insertion_index(w: Word, seg: Segment, slot: int) -> int:
    """Linear 0-based index for inserting into a segment after `slot`
    letters.  A slot between positions n and 1 goes to the beginning."""
    n = len(w)
    if slot == 0:
        return seg[0] - 1
    a = seg[slot - 1]
    return 0 if a == n else a


def _insert_one_fall(w: Word, letter: int, f: int) -> Word:
    segs = _segments(len(w), _fall_ends(w))
    if not 0 <= f < len(segs):
        raise ValueError(f"no fall with index {f}")
    seg = segs[f]
    letters = [w[p - 1] for p in seg]
    if letter in letters:
        raise ValueError(f"letter {letter} already appears in fall {f}")
    slot = sum(1 for x in letters if x > letter)
    i = _insertion_index(w, seg, slot)
    return w[:i] + (letter,) + w[i:]


def _insert_one_run(w: Word, letter: int, r: int) -> Word:
    segs = _segments(len(w), _run_ends(w))
    if not 0 <= r < len(segs):
        raise ValueError(f"no run with index {r}")
    seg = segs[r]
    letters = [w[p - 1] for p in seg]
    slot = sum(1 for x in letters if x < letter)
    i = _insertion_index(w, seg, slot)
    return w[:i] + (letter,) + w[i:]


def insert_into_falls(w, letter: int, falls: Iterable[int]) -> Word:
    """Insert `letter` into the listed falls (a set of fall indices), one
    fall at a time, re-reading the falls after each insertion."""
    w = as_word(w)
    falls = sorted(falls)
    if len(set(falls)) != len(falls):
        raise ValueError("fall indices must be distinct")
    for f in falls:
        w = _insert_one_fall(w, letter, f)
    return w


def insert_into_runs(w, letter: int, runs: Iterable[int]) -> Word:
    """Insert `letter` into the listed runs (a multiset of run indices), one
    run at a time, re-reading the runs after each insertion."""
    w = as_word(w)
    for r in sorted(runs):
        w = _insert_one_run(w, letter, r)
    return w


# ---------------------------------------------------------------------------
# a new largest letter into a word ending in 1, all falls or runs at once
#
# A new largest letter opens a fall (it goes right after the weak ascent
# ending the previous fall) and closes a run (right after the descent ending
# it).  Neither renumbers the falls or runs, which count from the one
# holding position 1: that letter stays put unless a copy opens fall 0 at
# position 1, and then the copy is in fall 0; a copy never closes a run at
# position n, as no run of a word ending in 1 ends there.  So one reading of
# the falls and one of the runs serve all the copies of the letter.

def _insert_before(w: Word, letter: int, indices: Iterable[int]) -> Word:
    """w with one `letter` inserted before w[i] for each listed 0-based i;
    a repeated i inserts repeated letters."""
    out: list[int] = []
    last = 0
    for i in sorted(indices):
        out += w[last:i]
        out.append(letter)
        last = i
    out += w[last:]
    return tuple(out)


def _open_falls(w: Word, fall_ends: list[int], letter: int, falls: Iterable[int]) -> Word:
    return _insert_before(w, letter, [fall_ends[f - 1] % len(w) for f in falls])


def _close_runs(w: Word, run_ends: list[int], letter: int, runs: Iterable[int]) -> Word:
    return _insert_before(w, letter, [run_ends[r] % len(w) for r in runs])


def insert_triple(w, letter: int, falls: Iterable[int], runs: Iterable[int]) -> Word:
    """Insert (letter, F, R): letter into falls F of w, then into runs R of
    the intermediate word.  Requires w ending in 1 and letter larger than
    every letter of w; the result again ends in 1."""
    w = as_word(w)
    if not w or w[-1] != 1:
        raise ValueError("insertion base word must end in 1")
    if letter <= max(w):
        raise ValueError("inserted letter must exceed every letter present")
    falls = sorted(falls)
    runs = sorted(runs)
    fall_ends = _fall_ends(w)
    if len(set(falls)) != len(falls):
        raise ValueError("fall indices must be distinct")
    if any(not 0 <= f < len(fall_ends) for f in falls):
        raise ValueError("fall index out of range")
    # each opened fall adds a cyclic descent, hence a run
    if any(not 0 <= r < len(w) - len(fall_ends) + len(falls) for r in runs):
        raise ValueError("run index out of range")
    return _insert_triple(w, fall_ends, letter, falls, runs)


def _insert_triple(w: Word, fall_ends: list[int], letter: int,
                   falls: Iterable[int], runs: Iterable[int]) -> Word:
    """insert_triple on labels already known to be valid for w, whose
    fall ends are given."""
    w = _open_falls(w, fall_ends, letter, falls)
    return _close_runs(w, _run_ends(w), letter, runs)


def predicted_maj_increment(w, falls: Sequence[int], runs: Sequence[int]) -> int:
    """Major index change from inserting a triple, without inserting."""
    return _maj_increment(cdes(as_word(w)), falls, runs)


def _maj_increment(c: int, falls: Sequence[int], runs: Sequence[int]) -> int:
    """predicted_maj_increment for a word with c cyclic descents."""
    nf, nr = len(falls), len(runs)
    return comb(nf + 1, 2) + c * (nf + nr) + nf * nr + sum(falls) - sum(runs)


# ---------------------------------------------------------------------------
# the bijection phi and its inverse

def phi(w) -> PhiImage:
    """Edge labels (F_l, R_l) for l = 2..m of the unique insertion path
    building w; requires w ending in 1 with strong content."""
    w = as_word(w)
    if not w or w[-1] != 1:
        raise ValueError("phi requires a word ending in 1")
    if not is_strong(content(w)):
        raise ValueError("phi requires strong content; flatten first")
    out = []
    for letter in range(max(w), 1, -1):
        w, falls, runs = _recover_triple(w, letter)
        out.append((falls, runs))
    return tuple(reversed(out))


def _recover_triple(cur: Word, letter: int):
    """(prev, F, R) with insert_triple(prev, letter, F, R) == cur, where
    letter is the largest letter of cur and prev omits it.  cur ends in 1,
    so no block of `letter` wraps around."""
    prev: list[int] = []
    blocks = []     # [j, size]: a maximal block of `letter` right before prev[j]
    for x in cur:
        if x != letter:
            prev.append(x)
        elif blocks and blocks[-1][0] == len(prev):
            blocks[-1][1] += 1
        else:
            blocks.append([len(prev), 1])
    prev = tuple(prev)

    # A block sits in a cyclic gap between prev letters a (before) and b
    # (after).  A weak ascent a <= b means the block starts with the letter
    # inserted into the fall holding b, and its other copies went into the
    # run that letter closes; a descent means a pure run block, in the run
    # holding a.  The segment holding the 0-based position i is the first
    # one ending at or after position i + 1, or segment 0 past the last end.
    fall_ends = _fall_ends(prev)
    falls = []
    w_prime: list[int] = []     # cur without its run-inserted letters
    anchors = []                # per run-inserted copy: index in w_prime it follows
    last = 0
    for j, size in blocks:
        w_prime += prev[last:j]
        last = j
        if prev[j - 1] <= prev[j]:
            falls.append(bisect_left(fall_ends, j + 1) % len(fall_ends))
            w_prime.append(letter)
            size -= 1
        anchors += [len(w_prime) - 1] * size
    w_prime += prev[last:]
    w_prime = tuple(w_prime)
    falls.sort()
    # Re-inserting at the recovered labels checks that every block sits at
    # the opening of a fall, then at the close of a run.
    if w_prime != _open_falls(prev, fall_ends, letter, falls):
        raise RuntimeError("fall recovery failed; invariant violated")

    run_ends = _run_ends(w_prime)
    runs = sorted(bisect_left(run_ends, a % len(w_prime) + 1) % len(run_ends)
                  for a in anchors)
    if _close_runs(w_prime, run_ends, letter, runs) != cur:
        raise RuntimeError("run recovery failed; invariant violated")
    return prev, tuple(falls), tuple(runs)


def label_spaces(alpha, delta):
    """The per-letter label lists: for each l = 2..m, all fall sets
    (delta_l-subsets of the falls of the previous stage) and all run
    multisets ((alpha_l - delta_l)-multisubsets of the k_l runs).  A list
    is empty exactly when its factor vanishes."""
    return [(list(itertools.combinations(range(falls), d)),
             list(itertools.combinations_with_replacement(range(runs), reps)))
            for falls, d, runs, reps in params(alpha, delta).factors()]


def phi_inverse(image: PhiImage, alpha, delta) -> Word:
    """Rebuild the word from its edge labels; validates each label."""
    p = params(alpha, delta)
    image = tuple((tuple(sorted(f)), tuple(sorted(r))) for f, r in image)
    if len(image) != p.m - 1:
        raise ValueError("image needs one label pair per letter above 1")
    w = (1,) * p.alpha[0]
    for letter, ((falls, runs), (n_falls, d, n_runs, reps)) in enumerate(
            zip(image, p.factors()), start=2):
        if len(falls) != d or any(not 0 <= f < n_falls for f in falls):
            raise ValueError(f"invalid fall set for letter {letter}")
        if len(runs) != reps or any(not 0 <= r < n_runs for r in runs):
            raise ValueError(f"invalid run multiset for letter {letter}")
        w = insert_triple(w, letter, falls, runs)
    return w


def insertion_tree(alpha, delta) -> Iterator[tuple[Word | None, PhiImage, Word]]:
    """Depth-first walk of the insertion tree of the words of content alpha
    and cyclic descent type delta ending in 1.

    Yields (parent, path, word) for every node in preorder: first the root
    1^alpha_1 with parent None and an empty path, then each child, built
    once from its parent along the edge labelled path[-1], as insert_triple
    would build it.  The labels come from label_spaces, so they are valid
    by construction: the walk reads each node's falls once for all its
    children and skips insert_triple's checks.  The leaves are the nodes
    whose path has len(alpha) - 1 labels; by the bijection, their path is
    their phi image."""
    p = params(alpha, delta)
    per_letter = [list(itertools.product(fs, rs)) for fs, rs in label_spaces(p.alpha, p.delta)]

    def visit(parent, path, w):
        yield parent, path, w
        if len(path) < len(per_letter):
            letter = len(path) + 2
            fall_ends = _fall_ends(w)
            for falls, runs in per_letter[len(path)]:
                yield from visit(w, path + ((falls, runs),),
                                 _insert_triple(w, fall_ends, letter, falls, runs))

    return visit(None, (), (1,) * p.alpha[0])


def leaves(alpha, delta) -> Iterator[Word]:
    """All words of content alpha and cyclic descent type delta ending in 1,
    each exactly once: the leaves of the insertion tree."""
    p = params(alpha, delta)
    depth = p.m - 1
    for _, path, w in insertion_tree(p.alpha, p.delta):
        if len(path) == depth:
            yield w


# ---------------------------------------------------------------------------
# multiplicity-word encoding

def multiplicity_word(elements: Iterable[int], universe_size: int) -> tuple[int, ...]:
    out = [0] * universe_size
    for x in elements:
        out[x] += 1
    return tuple(out)


def image_multiplicity_words(image: PhiImage, alpha, delta):
    """Encode each label pair as a pair of multiplicity words over its
    universe (the falls and the runs of InstanceParams.factors)."""
    return tuple((multiplicity_word(falls, n_falls), multiplicity_word(runs, n_runs))
                 for (falls, runs), (n_falls, _, n_runs, _)
                 in zip(image, params(alpha, delta).factors(), strict=True))


def power_image(u, k: int) -> PhiImage:
    """Predicted phi(u^k): each multiplicity word of phi(u), concatenated
    with itself k times, decoded over the universes of u^k."""
    u = as_word(u)
    words = image_multiplicity_words(phi(u), content(u), cdt(u))
    out = []
    for fall_word, run_word in words:
        fall_counts = fall_word * k
        run_counts = run_word * k
        out.append((
            tuple(i for i, c in enumerate(fall_counts) for _ in range(c)),
            tuple(i for i, c in enumerate(run_counts) for _ in range(c)),
        ))
    return tuple(out)
