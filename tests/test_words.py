"""Word statistics and necklaces, against a reference rotation."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from csieve.formulas import rotation_action
from csieve.words import (as_word, cdes, cdt, cdt_groups, content, cyclic_descent_set,
                          des, descent_set, enumerate_by_content, flex, flex_per_orbit,
                          inv, maj, necklace, necklace_classes, necklaces, pad_to,
                          strong_compositions)

W = as_word([1, 5, 5, 3, 1, 5, 5, 3])


def test_running_example_statistics():
    # all values checked by hand
    assert descent_set(W) == {3, 4, 7}
    assert cyclic_descent_set(W) == {3, 4, 7, 8}
    assert des(W) == 3
    assert cdes(W) == 4
    assert maj(W) == 14
    assert inv(W) == 9
    assert content(W) == (2, 0, 2, 0, 4)
    # W is its own least rotation, of period 4, so its frequency is 8 / 4
    assert necklace(W) == (W, 4)


def test_cdt_worked_example():
    assert cdt(as_word([1, 4, 3, 1, 2, 4, 1, 1, 4, 2, 2, 3])) == (0, 2, 1, 2)


def test_cdt_of_running_example():
    # filtration 11 -> 1331 -> 15531553; new cyclic descents: 0, 2, 2
    assert cdt(W) == (0, 0, 2, 0, 2)


def test_cdt_constant_and_trivial():
    assert cdt((1, 1, 1)) == (0,)
    assert cdt((2, 2)) == (0, 0)
    assert cdt(()) == ()


def rotate(w, steps):
    """The reference rotation: one positive step moves the last letter to
    the front."""
    w = tuple(w)
    s = steps % len(w) if w else 0
    return w[-s:] + w[:-s] if s else w


def test_rotate():
    assert rotate((1, 2, 3), 1) == (3, 1, 2)
    assert rotate((1, 2, 3), 3) == (1, 2, 3)
    assert rotate((1, 2, 3), -1) == (2, 3, 1)
    assert rotate((), 5) == ()


def sorted_rotations(w):
    """The reference necklace: the distinct rotations of w, sorted."""
    return sorted({rotate(w, s) for s in range(len(w))})


def reference_flexes(words):
    """The definition, orbit by orbit: flex = freq * lex, where freq is n
    over the number of distinct rotations and lex the index among them,
    sorted, for every rotation of every word of `words`."""
    out = {}
    for w in words:
        if w not in out:
            rotations = sorted_rotations(w)
            f = len(w) // len(rotations)
            out.update((u, f * i) for i, u in enumerate(rotations))
    return out


def test_necklace_of_running_example():
    # the (least rotation, period) pair, the same from every rotation
    for s in range(8):
        assert necklace(rotate(W, s)) == (W, 4)
    assert necklace((2, 1, 2, 1)) == ((1, 2, 1, 2), 2)
    assert necklace([3]) == ((3,), 1)
    # the empty word has one rotation, as necklaces(()) says
    assert necklace(()) == ((), 1)


def test_flex_table_of_running_example():
    # the four rotations in lex order carry flex = freq * lex = 0, 2, 4, 6
    rotations = sorted_rotations(W)
    assert rotations == [W, (3, 1, 5, 5, 3, 1, 5, 5), (5, 3, 1, 5, 5, 3, 1, 5),
                         (5, 5, 3, 1, 5, 5, 3, 1)]
    assert [flex(u) for u in rotations] == [0, 2, 4, 6]
    assert flex_per_orbit([necklace(W)]) == dict(zip(rotations, [0, 2, 4, 6]))


def test_flex_on_primitive_word():
    # three distinct rotations: frequency 1, so flex is the rank itself
    w = (1, 2, 3)
    assert necklace(w) == (w, 3)
    assert [flex(u) for u in sorted_rotations(w)] == [0, 1, 2]


def test_composition_helpers():
    assert pad_to((1, 2), 4) == (1, 2, 0, 0)
    assert list(strong_compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(strong_compositions(2, 3)) == []


def test_strong_compositions_are_the_recursive_definition():
    def recursive(n, parts):
        if parts == 0:
            if n == 0:
                yield ()
            return
        if parts == 1:
            if n >= 1:
                yield (n,)
            return
        for first in range(1, n - parts + 2):
            for rest in recursive(n - first, parts - 1):
                yield (first,) + rest

    for n in range(13):
        for parts in range(14):
            assert list(strong_compositions(n, parts)) == list(recursive(n, parts))


def contents_up_to(n_max):
    """Every strong content with n <= n_max, all numbers of parts."""
    for n in range(1, n_max + 1):
        for parts in range(1, n + 1):
            yield from strong_compositions(n, parts)


ZERO_PART_CONTENTS = [(2, 0, 2), (2, 2, 0), (0, 1)]


def test_enumerate_by_content():
    words = list(enumerate_by_content((2, 1)))
    assert words == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    # lex order and correct cardinality for a bigger content
    words = list(enumerate_by_content((2, 0, 2)))
    assert len(words) == 6
    assert words == sorted(words)
    assert all(content(w) == (2, 0, 2) for w in words)


def test_enumerate_by_content_is_the_sorted_permutations():
    for alpha in list(contents_up_to(7)) + ZERO_PART_CONTENTS:
        letters = [j for j, a in enumerate(alpha, 1) for _ in range(a)]
        assert list(enumerate_by_content(alpha)) == sorted(
            set(itertools.permutations(letters))), alpha
    assert list(enumerate_by_content(())) == [()]
    assert list(enumerate_by_content((0, 0))) == [()]
    with pytest.raises(ValueError):
        list(enumerate_by_content((2, -1)))


def test_cdt_groups():
    groups = cdt_groups((2, 2))
    assert groups[(0, 2)] == [(1, 2, 1, 2), (2, 1, 2, 1)]
    # keys are padded to len(alpha), even past the largest letter present
    assert set(cdt_groups((2, 0, 2))) == {(0, 0, 1), (0, 0, 2)}
    assert set(cdt_groups((2, 2, 0))) == {(0, 1, 0), (0, 2, 0)}


def test_cdt_partitions_the_content_class():
    for alpha in [(2, 2), (3, 1, 1), (1, 2, 2)]:
        words = list(enumerate_by_content(alpha))
        grouped = itertools.groupby(sorted(words, key=cdt), key=cdt)
        regrouped = sum(len(list(g)) for _, g in grouped)
        assert regrouped == len(words)
        for w in words:
            assert cdt(w)[0] == 0
            assert all(d <= a for a, d in zip(alpha, cdt(w)))
            assert sum(cdt(w)) == cdes(w)


def cdt_groups_per_word(alpha):
    """The reference: every word of the content, with cdt per word."""
    groups = {}
    for w in enumerate_by_content(alpha):
        groups.setdefault(pad_to(cdt(w), len(alpha)), []).append(w)
    return groups


def assert_same_groups(alpha):
    # cdt_groups lists a class necklace by necklace, the reference in
    # lexicographic order: the same words, and the same key order
    groups, reference = cdt_groups(alpha), cdt_groups_per_word(alpha)
    assert {delta: sorted(ws) for delta, ws in groups.items()} == reference, alpha
    assert list(groups) == list(reference), alpha


def test_cdt_groups_equal_the_per_word_reference():
    for alpha in list(contents_up_to(7)) + ZERO_PART_CONTENTS + [(), (0,)]:
        assert_same_groups(alpha)


@st.composite
def contents(draw, n_max=10, max_parts=4):
    """A content of at most n_max letters in 1..max_parts parts, zero
    parts allowed."""
    left = draw(st.integers(0, n_max))
    parts = []
    for _ in range(draw(st.integers(1, max_parts)) - 1):
        parts.append(draw(st.integers(0, left)))
        left -= parts[-1]
    return tuple(parts) + (left,)


@settings(max_examples=60, deadline=None)
@given(contents())
def test_cdt_groups_equal_the_per_word_reference_up_to_10_letters(alpha):
    assert_same_groups(alpha)


def test_cdt_is_constant_on_every_necklace():
    # the lemma cdt_groups rests on: one cdt per necklace
    for alpha in contents_up_to(7):
        for w in enumerate_by_content(alpha):
            assert cdt(rotate(w, 1)) == cdt(w), w


def test_necklaces_are_the_least_rotations_with_their_periods():
    # the reference: each word of the content that is the least of its
    # distinct rotations, with their number; necklace(w) of every word is
    # the pair of its class
    for alpha in list(contents_up_to(7)) + ZERO_PART_CONTENTS:
        reference = []
        for w in enumerate_by_content(alpha):
            rotations = sorted_rotations(w)
            if rotations[0] == w:
                reference.append((w, len(rotations)))
            assert necklace(w) == (rotations[0], len(rotations)), w
        assert list(necklaces(alpha)) == reference, alpha
    assert list(necklaces(())) == [((), 1)]


def test_necklace_classes_group_the_necklaces_by_cdt():
    # the reference: cdt of every necklace, padded to len(alpha)
    for alpha in list(contents_up_to(7)) + ZERO_PART_CONTENTS + [(), (0,)]:
        reference = {}
        for w, p in necklaces(alpha):
            reference.setdefault(pad_to(cdt(w), len(alpha)), []).append((w, p))
        assert necklace_classes(alpha) == reference, alpha


def test_a_deep_content_has_its_one_necklace():
    # 2000 letters: the walk of the prenecklaces keeps no call stack
    w = (1,) * 1999 + (2,)
    assert list(necklaces((1999, 1))) == [(w, 2000)]
    groups = cdt_groups((1999, 1))
    assert list(groups) == [(0, 1)]
    assert sorted(groups[(0, 1)]) == sorted(rotate(w, s) for s in range(2000))


def test_flex_per_orbit_is_flex():
    # on the necklaces of a content, flex_per_orbit has every word of the
    # content once, with freq * lex by the reference
    for alpha in list(contents_up_to(8)) + ZERO_PART_CONTENTS:
        flexes = flex_per_orbit(necklaces(alpha))
        words = list(enumerate_by_content(alpha))
        assert sorted(flexes) == words, alpha
        assert flexes == reference_flexes(words), alpha


# Words of length <= 10 over the letters 1..5, any of them possibly absent.
short_words = st.lists(st.integers(1, 5), max_size=10).map(tuple)


@settings(max_examples=200, deadline=None)
@given(short_words)
def test_inv_counts_the_inverted_pairs(w):
    assert inv(w) == sum(1 for i, j in itertools.combinations(range(len(w)), 2)
                         if w[i] > w[j])


@settings(max_examples=200, deadline=None)
@given(short_words)
def test_descent_counts_agree_with_the_descent_sets(w):
    assert maj(w) == sum(descent_set(w))
    assert des(w) == len(descent_set(w))
    assert cdes(w) == len(cyclic_descent_set(w))


def cdt_by_filtration(w):
    """The definition: for each level, the subword of the letters <= level
    and its cyclic falls; entry l is the number of falls level l adds."""
    out, prev = [], 0
    for level in range(1, max(w, default=0) + 1):
        sub = [x for x in w if x <= level]
        falls = sum(1 for i in range(len(sub)) if sub[i] > sub[(i + 1) % len(sub)])
        out.append(falls - prev)
        prev = falls
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(short_words)
def test_cdt_is_the_filtration_definition(w):
    assert cdt(w) == cdt_by_filtration(w)


@settings(max_examples=200, deadline=None)
@given(short_words.filter(bool))
def test_necklace_and_the_rotation_step_agree_with_rotate(w):
    rotations = [rotate(w, s) for s in range(len(w))]
    assert necklace(w) == (min(rotations), len(set(rotations)))
    assert flex(w) == reference_flexes([w])[w]
    assert rotation_action(len(w), [w]).step(w) == rotate(w, 1)
