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
from math import comb
from operator import gt, le
from typing import Iterable, Iterator, Sequence

from .actions import Verdict
from .formulas import InstanceParams, params
from .words import Word, as_word, cdes, content, cdt, is_strong, maj, words_ending_in_one

# A segment is a tuple of 1-based positions, cyclically consecutive in w.
Segment = tuple[int, ...]
# A phi image is a tuple of (fall_set, run_multiset) pairs for letters 2..m,
# each component a sorted tuple of integers.
PhiImage = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

# Helpers whose name starts with an underscore take an already validated
# Word; only the public functions call as_word.


def _fall_ends(w: Word) -> list[int]:
    """1-based positions p with w_p <= w_{p+1} (cyclically): each ends a fall."""
    return list(itertools.compress(range(1, len(w) + 1), map(le, w, w[1:] + w[:1])))


def _run_ends(w: Word) -> list[int]:
    """1-based cyclic descent positions: each ends a run."""
    return list(itertools.compress(range(1, len(w) + 1), map(gt, w, w[1:] + w[:1])))


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
# a new largest letter into a word ending in 1, all falls and runs at once
#
# A new largest letter opens fall f by going into the weak ascent that ends
# fall f - 1 (for fall 0, the gap before w_1, after the final 1), and closes
# a run by going right after the descent that ends it.  Neither renumbers
# the falls or runs, which count from the one holding position 1.  An
# opened copy turns its weak ascent into a descent, so the runs of the
# fall-opened word end at the descents of w and at the opened copies, in
# the order of their gaps in w; a copy closing a run goes into the same gap
# as the descent or the opened copy ending it.  So every copy's place is a
# gap of w, worked out from one reading of w's fall ends and descents, and
# all the copies go in with one call of _insert_before.

def _insert_before(w: Word, letter: int, indices: Iterable[int]) -> Word:
    """w with one `letter` inserted before w[i] for each listed 0-based i;
    a repeated i inserts repeated letters.  The insertions go from the
    right, so each index still counts the letters of w."""
    out = list(w)
    for i in sorted(indices, reverse=True):
        out.insert(i, letter)
    return tuple(out)


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
    return _insert_triple(w, fall_ends, _run_ends(w), letter, falls, runs)


def _insert_triple(w: Word, fall_ends: list[int], descents: list[int], letter: int,
                   falls: Iterable[int], runs: Iterable[int]) -> Word:
    """insert_triple on labels already known to be valid for w, whose fall
    ends and descents (its run ends) are given.  Each copy goes before the
    0-based index of its gap in w, so the word is built in one insertion."""
    n = len(w)
    opened = [fall_ends[f - 1] % n for f in falls]
    run_ends = sorted(descents + opened)
    return _insert_before(w, letter, opened + [run_ends[r] for r in runs])


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
    building w; requires w ending in 1 in which every letter 1..max(w)
    occurs.  Each recovered step is checked by re-inserting its labels."""
    w = as_word(w)
    if not w or w[-1] != 1:
        raise ValueError("phi requires a word ending in 1")
    if not is_strong(content(w)):
        raise ValueError("phi requires every letter 1..max(w) to occur")
    out = []
    for letter in range(max(w), 1, -1):
        prev, falls, runs = _recover_labels(w, letter)
        try:
            rebuilt = insert_triple(prev, letter, falls, runs)
        except ValueError:
            rebuilt = None
        if rebuilt != w:
            raise RuntimeError(f"labels {falls}, {runs} recovered for letter {letter} "
                               f"do not rebuild {w}; invariant violated")
        out.append((falls, runs))
        w = prev
    return tuple(reversed(out))


def _recover_labels(cur: Word, letter: int):
    """The labels (prev, F, R) of the edge into cur, in one scan of cur,
    where letter is the largest letter of cur and prev omits it.  phi
    checks them by re-insertion; verify_phi, the check of the insertion
    bijection, compares them with the edge that built cur.  cur
    ends in 1, so no block of `letter` wraps around, and the gap before
    prev[0] is a weak ascent.  The scan reads _insert_triple backwards:
    each block of copies fills one gap of prev.

    A block sits in the gap j between prev[j-1] and prev[j].  Let D count
    the descents of prev in the gaps 1..j-1.  In a weak ascent the block
    starts with the copy that opened fall j - D, as j - D counts the weak
    ascents in the gaps 1..j and fall f opens after the f-th (fall 0 at
    gap 0); its other copies closed the run that copy ends.  In a descent
    the block closed the run that prev[j-1] ends.  Every run of the
    fall-opened word ends at a descent of prev or at an opened copy, so
    the run closed by a copy in gap j has index D plus the number of
    falls opened before gap j."""
    prev: list[int] = []
    falls: list[int] = []
    runs: list[int] = []
    descents = opened = pending = 0
    a = 1       # the letter of prev before the gap; cyclically, cur's final 1
    for x in cur:
        if x == letter:
            pending += 1
            continue
        if pending:
            closed = descents + opened
            if a <= x:
                falls.append(len(prev) - descents)
                opened += 1
                pending -= 1
            runs += [closed] * pending
            pending = 0
        if a > x:
            descents += 1
        prev.append(x)
        a = x
    return tuple(prev), tuple(falls), tuple(runs)


def _label_spaces(p: InstanceParams) -> list[tuple[tuple, tuple]]:
    """The per-letter label tuples of an instance: for each l = 2..m, all
    fall sets (delta_l-subsets of the falls of the previous stage) and all
    run multisets ((alpha_l - delta_l)-multisubsets of the k_l runs).  A
    tuple is empty exactly when its factor vanishes."""
    return [(tuple(itertools.combinations(range(falls), d)),
             tuple(itertools.combinations_with_replacement(range(runs), reps)))
            for falls, d, runs, reps in p.factors()]


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


def _expansions(root: Word, spaces: list[tuple[tuple, tuple]]
                ) -> Iterator[tuple[PhiImage, Word, list]]:
    """Depth-first walk, on an explicit stack, of the insertion tree from
    the root 1^alpha_1 whose edges below depth l are labelled by
    spaces[l], the _label_spaces of its instance.

    Yields (path, word, edges) for every node with children, starting at
    the root with an empty path: path holds the labels of the edges from
    the root, and edges lists (falls, runs, child) for every child, every
    run multiset of the first fall set first, then of the next.  The
    children are built from one reading of the node's fall ends and
    descents, as insert_triple would build them; the labels are valid by
    construction, so insert_triple's checks are skipped.  The nodes come
    in preorder, each subtree before the next sibling's."""
    depth = len(spaces)
    stack = [((), root)] if depth else []
    while stack:
        path, w = stack.pop()
        letter = len(path) + 2
        fall_ends, descents = _fall_ends(w), _run_ends(w)
        fall_sets, run_sets = spaces[len(path)]
        edges = [(falls, runs, _insert_triple(w, fall_ends, descents, letter, falls, runs))
                 for falls in fall_sets for runs in run_sets]
        yield path, w, edges
        if len(path) + 1 < depth:
            stack += [(path + ((falls, runs),), child)
                      for falls, runs, child in reversed(edges)]


def leaves(alpha, delta) -> Iterator[Word]:
    """All words of content alpha and cyclic descent type delta ending in 1,
    each exactly once: the leaves of the insertion tree, that is the
    children of the nodes that _expansions yields at the last level, or
    the root 1^alpha_1 alone when alpha has one part."""
    p = params(alpha, delta)
    spaces = _label_spaces(p)
    root = (1,) * p.alpha[0]
    if not spaces:
        yield root
    for path, _, edges in _expansions(root, spaces):
        if len(path) + 1 == len(spaces):
            yield from (child for _, _, child in edges)


def _edge_failure(check: str, parent: Word, letter: int, falls, runs, child: Word,
                  **found) -> Verdict:
    """A failing verdict on one edge of an insertion tree, with what
    rebuilds the child: insert_triple(parent, letter, falls, runs)."""
    return Verdict(False, {"check": check, "parent": parent, "letter": letter,
                           "falls": falls, "runs": runs, "child": child, **found})


def verify_phi(alpha, delta, enumerated: set[Word] | None = None) -> Verdict:
    """The insertion bijection on one instance, in one walk of its tree
    (_expansions).  On every edge (parent, letter, falls, runs, child)
    the triple recovered from the child is (parent, falls, runs), and
    the predicted maj increment matches the actual change.  phi folds
    that recovery from a leaf to the root, so by induction phi of every
    leaf returns the labels of its path.  Last, the leaves are exactly the
    `enumerated` words ending in 1 (by default, from words_ending_in_one),
    each built once.  maj is taken once per node, and cdes once per node
    with children.  As |F| + |R| = alpha_l, the predicted increment
    _maj_increment(cdes(parent), F, R) is _maj_increment(0, F, R), taken
    once per label, plus cdes(parent) * alpha_l.

    The walk recovers each edge with _recover_labels, phi's step without
    its re-insertion check: the child was built from exactly
    (parent, falls, runs), so when the recovered triple equals that,
    re-inserting it gives the child by construction, and when it differs
    the comparison fails.  A recovery witness holds what phi's step reads
    from the child alone."""
    p = params(alpha, delta)
    if enumerated is None:
        enumerated = words_ending_in_one(p.alpha).get(p.delta, set())
    spaces = _label_spaces(p)
    depth = len(spaces)
    # the increments below each depth, in the order of _expansions' edges
    increments = [[_maj_increment(0, falls, runs) for falls in fall_sets for runs in run_sets]
                  for fall_sets, run_sets in spaces]
    root = (1,) * p.alpha[0]
    node_maj = {root: maj(root)}     # the maj of every node with children
    leaf_words = [] if depth else [root]
    for path, w, edges in _expansions(root, spaces):
        level = len(path)
        letter = level + 2
        w_maj = node_maj[w]
        shift = cdes(w) * p.alpha[level + 1]
        for (falls, runs, child), base in zip(edges, increments[level]):
            recovered = _recover_labels(child, letter)
            if recovered != (w, falls, runs):
                return _edge_failure("recovery", w, letter, falls, runs, child,
                                     recovered=recovered)
            child_maj = maj(child)
            if child_maj - w_maj != base + shift:
                return _edge_failure("maj-increment", w, letter, falls, runs, child,
                                     predicted=base + shift, actual=child_maj - w_maj)
            if level + 1 == depth:
                leaf_words.append(child)
            else:
                node_maj[child] = child_maj
    # each kept child recovered its own edge, so no two edges build one leaf
    built = set(leaf_words)
    extra = min(built - enumerated, default=None)
    missing = min(enumerated - built, default=None)
    if extra is not None or missing is not None:
        return Verdict(False, {"check": "leaf-set", "built": len(leaf_words),
                               "enumerated": len(enumerated),
                               "missing": missing, "extra": extra})
    return Verdict(True, None)


# ---------------------------------------------------------------------------
# phi of a power

def power_image(u, k: int) -> PhiImage:
    """Predicted phi(u^k): each label set of phi(u), drawn from n_falls
    falls (n_runs runs), written out in each of the k copies of that
    universe in u^k, copy j shifted by j * n_falls (j * n_runs).  Read as
    a multiplicity word over the universe, that is the word repeated k
    times."""
    u = as_word(u)
    return tuple((tuple(f + j * n_falls for j in range(k) for f in falls),
                  tuple(r + j * n_runs for j in range(k) for r in runs))
                 for (falls, runs), (n_falls, _, n_runs, _)
                 in zip(phi(u), params(content(u), cdt(u)).factors(), strict=True))
