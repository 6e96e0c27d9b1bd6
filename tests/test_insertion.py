"""Falls, runs, insertion, and the bijection between words ending in 1 and
their insertion labels.  The paper's insertion, one letter into one fall or
run at a time, is defined here as the reference insert_triple is compared
with."""

import itertools
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from csieve import insertion
from csieve.formulas import (count_w_alpha_delta, feasible_deltas, is_nonempty,
                             maj_gf_mod_n, params, tilde_maj_gf)
from csieve.insertion import (fall_segments, insert_triple, leaves, phi, phi_inverse,
                              power_image, predicted_maj_increment, run_segments)
from csieve.qpoly import ZERO, ResiduePoly
from csieve.sweeps import iter_contents
from csieve.words import (as_word, cdt_groups, content, enumerate_by_content, maj,
                          strong_compositions)


def letters_of(w, seg):
    return [w[p - 1] for p in seg]


# ---------------------------------------------------------------------------
# the paper's insertion, one letter at a time, re-reading the segments

def insert_into_segment(w, letter, seg, slot):
    """w with `letter` inserted into the segment seg after `slot` of its
    letters.  A slot between positions n and 1 goes to the beginning."""
    if slot == 0:
        i = seg[0] - 1
    else:
        i = 0 if seg[slot - 1] == len(w) else seg[slot - 1]
    return w[:i] + (letter,) + w[i:]


def insert_into_falls(w, letter, falls):
    """Insert `letter` into the listed falls (a set of fall indices), one
    fall at a time, re-reading the falls after each insertion."""
    w = as_word(w)
    if len(set(falls)) != len(falls):
        raise ValueError("fall indices must be distinct")
    for f in sorted(falls):
        seg = fall_segments(w)[f]
        letters = letters_of(w, seg)
        if letter in letters:
            raise ValueError(f"letter {letter} already appears in fall {f}")
        w = insert_into_segment(w, letter, seg, sum(x > letter for x in letters))
    return w


def insert_into_runs(w, letter, runs):
    """Insert `letter` into the listed runs (a multiset of run indices), one
    run at a time, re-reading the runs after each insertion."""
    w = as_word(w)
    for r in sorted(runs):
        seg = run_segments(w)[r]
        w = insert_into_segment(w, letter, seg, sum(x < letter for x in letters_of(w, seg)))
    return w


# ---------------------------------------------------------------------------
# the insertion tree, walked as the package walks it

def label_spaces(alpha, delta):
    return insertion._label_spaces(params(alpha, delta))


def tree_nodes(alpha, delta):
    """(parent, path, word) for every node of the insertion tree: the root
    1^alpha_1 with parent None and an empty path, then every child of each
    node that insertion._expansions yields, built along the edge labelled
    path[-1]."""
    root = (1,) * alpha[0]
    yield None, (), root
    for path, w, edges in insertion._expansions(root, label_spaces(alpha, delta)):
        for falls, runs, child in edges:
            yield w, path + ((falls, runs),), child


# ---------------------------------------------------------------------------
# worked examples

def test_segments_worked_example():
    w = as_word([2, 6, 5, 3, 4, 6, 1, 1])
    falls = [letters_of(w, s) for s in fall_segments(w)]
    assert falls == [[2], [6, 5, 3], [4], [6, 1], [1]]
    runs = [letters_of(w, s) for s in run_segments(w)]
    assert runs == [[1, 1, 2, 6], [5], [3, 4, 6]]


def test_segments_constant_word():
    w = (3, 3, 3)
    assert len(fall_segments(w)) == 3
    assert run_segments(w) == []


def test_insertion_worked_example():
    w = as_word([2, 6, 5, 3, 4, 6, 1, 1])
    w1 = insert_into_falls(w, 7, [0, 3])
    assert w1 == as_word([7, 2, 6, 5, 3, 4, 7, 6, 1, 1])
    w2 = insert_into_runs(w1, 7, [0, 2, 3, 3])
    assert w2 == as_word([7, 7, 2, 6, 5, 7, 3, 4, 7, 7, 7, 6, 1, 1])
    assert insert_triple(w, 7, [0, 3], [0, 2, 3, 3]) == w2


def test_insert_triple_guards():
    with pytest.raises(ValueError):
        insert_triple((1, 2), 3, [], [])          # must end in 1
    with pytest.raises(ValueError):
        insert_triple((2, 1), 2, [], [])          # letter not new maximum
    with pytest.raises(ValueError):
        insert_triple((1, 1), 2, [5], [])         # fall index out of range
    with pytest.raises(ValueError):
        insert_into_falls((2, 1), 3, [0, 0])      # repeated fall index
    with pytest.raises(ValueError):
        insert_triple((2, 1, 1), 3, [0, 0], [])   # repeated fall index


def test_insertion_path_example():
    w = insert_triple((1, 1, 1, 1), 2, [0, 2], [])
    assert w == (2, 1, 1, 2, 1, 1)
    w = insert_triple(w, 3, [2], [1, 2])
    assert w == (2, 1, 1, 3, 3, 2, 3, 1, 1)


def test_phi_golden_images():
    assert phi((2, 1, 1, 3, 3, 2, 3, 1, 1)) == (((0, 2), ()), ((2,), (1, 2)))
    assert phi((2, 2, 2, 1, 1, 2, 3, 3, 1, 1)) == (((0, 2), (0, 0)), ((), (1, 1)))


@pytest.mark.parametrize("wrong", [
    lambda prev, falls, runs: (prev, tuple(f + 1 for f in falls), runs),
    lambda prev, falls, runs: (prev, falls, tuple(r - 1 for r in runs)),
    lambda prev, falls, runs: (prev, tuple(f + 9 for f in falls), runs),
    lambda prev, falls, runs: (prev, falls, tuple(r + 9 for r in runs))],
    ids=["fall-plus-1", "run-minus-1", "fall-out-of-range", "run-out-of-range"])
def test_phi_checks_its_recovered_labels_by_reinsertion(monkeypatch, wrong):
    # the last step of the golden word recovers falls (2,) and runs (1, 2);
    # a label out of range is a fault of phi too, not an IndexError
    real = insertion._recover_labels
    monkeypatch.setattr(insertion, "_recover_labels",
                        lambda cur, letter: wrong(*real(cur, letter)))
    with pytest.raises(RuntimeError, match="do not rebuild"):
        phi((2, 1, 1, 3, 3, 2, 3, 1, 1))


def test_the_recovery_core_reads_every_edge_of_every_tree():
    # the labels that the phi check (verify_phi) reads without
    # re-insertion are the edge's own, and phi, which checks each step by
    # re-insertion, returns the path of every node
    for alpha in iter_contents(7, 4):
        for delta in feasible_deltas(alpha):
            for parent, path, w in tree_nodes(alpha, delta):
                if parent is not None:
                    letter = len(path) + 1
                    assert insertion._recover_labels(w, letter) == (parent, *path[-1]), \
                        (alpha, delta, w)
                    assert phi(w) == path, (alpha, delta, w)


def test_phi_of_squared_word():
    u = (2, 1, 1, 3, 3, 2, 3, 1, 1)
    expected = (((0, 2, 4, 6), ()), ((2, 6), (1, 2, 4, 5)))
    assert phi(u + u) == expected
    assert power_image(u, 2) == expected


def test_phi_roundtrip_small():
    for alpha, delta in [((3, 1, 1), (0, 1, 0)), ((2, 2), (0, 2)),
                         ((4, 2, 3), (0, 2, 1)), ((2, 2, 2), (0, 0, 0))]:
        for w in leaves(alpha, delta):
            assert phi_inverse(phi(w), alpha, delta) == w
            assert content(w) == alpha
            assert w[-1] == 1


def test_phi_requires_terminal_one_and_strong_content():
    with pytest.raises(ValueError):
        phi((1, 2))
    with pytest.raises(ValueError):
        phi((3, 1))          # letter 2 missing


def test_leaves_figure_example():
    got = set(leaves((3, 1, 1), (0, 1, 0)))
    assert got == {(2, 3, 1, 1, 1), (1, 2, 3, 1, 1), (1, 1, 2, 3, 1)}


def test_leaf_count_larger_example():
    found = list(leaves((4, 2, 3), (0, 2, 1)))
    assert len(found) == 144
    assert len(set(found)) == 144


def test_predicted_maj_increment_matches_actual():
    base = (2, 1, 1, 2, 1, 1)
    for falls, runs in [((2,), (1, 2)), ((), ()), ((0, 1), (0,)), ((3,), (2, 2))]:
        inc = predicted_maj_increment(base, falls, runs)
        assert maj(insert_triple(base, 3, falls, runs)) - maj(base) == inc


def test_label_spaces_shape():
    spaces = label_spaces((4, 2, 3), (0, 2, 1))
    sizes = [len(fs) * len(rs) for fs, rs in spaces]
    assert sizes[0] * sizes[1] == 144


def test_multiplicity_word_encoding():
    # one copy of each label set's multiplicity word: phi itself
    w = (2, 1, 1, 3, 3, 2, 3, 1, 1)
    assert power_image(w, 1) == phi(w)


def test_power_image_is_phi_of_the_power():
    # every word u ending in 1 of strong content with |u| <= 6, at every
    # k >= 2 with |u^k| <= 12
    pairs = 0
    for n in range(1, 7):
        for parts in range(1, n + 1):
            for alpha in strong_compositions(n, parts):
                for u in enumerate_by_content(alpha):
                    if u[-1] == 1:
                        for k in range(2, 12 // n + 1):
                            assert power_image(u, k) == phi(u * k), (u, k)
                            pairs += 1
    assert pairs == 1323


def test_phi_inverse_rejects_bad_labels():
    with pytest.raises(ValueError):
        phi_inverse((((9,), ()),), (2, 1), (0, 1))
    with pytest.raises(ValueError):
        phi_inverse((((0,), ()),), (2, 1), (0, 1, 0))


# ---------------------------------------------------------------------------
# properties of the insertion tree, for every strong content with n <= 7

STRONG_CONTENTS = [alpha for n in range(1, 8) for parts in range(1, n + 1)
                   for alpha in strong_compositions(n, parts)]


def test_leaves_count_and_emptiness_agree_with_the_label_spaces():
    # every delta of the candidate box {0} x [0, alpha_2] x ..., feasible or not
    for alpha in (a for a in STRONG_CONTENTS if sum(a) <= 6):
        n = sum(alpha)
        for delta in itertools.product((0,), *(range(a + 1) for a in alpha[1:])):
            size = prod(len(fs) * len(rs) for fs, rs in label_spaces(alpha, delta))
            assert len(list(leaves(alpha, delta))) == size, (alpha, delta)
            assert alpha[0] * count_w_alpha_delta(alpha, delta) == n * size, (alpha, delta)
            empty = not is_nonempty(alpha, delta)
            assert (size == 0) == empty, (alpha, delta)
            # the closed forms vanish through their factors, with no guard
            assert (tilde_maj_gf(alpha, delta) == ZERO) == empty, (alpha, delta)
            assert (maj_gf_mod_n(alpha, delta) == ResiduePoly.zero(n)) == empty, (alpha, delta)


@st.composite
def instances(draw):
    alpha = draw(st.sampled_from(STRONG_CONTENTS))
    return alpha, draw(st.sampled_from(list(feasible_deltas(alpha))))


def one_index_at_a_time(w, letter, falls, runs):
    for f in falls:
        w = insert_into_falls(w, letter, [f])
    for r in runs:
        w = insert_into_runs(w, letter, [r])
    return w


def test_batched_insertion_matches_one_index_at_a_time():
    # every edge of every tree with n <= 7, any number of parts: the one-pass
    # insertion against the paper's, one letter into one fall or run at a
    # time, re-reading the segments
    edges = 0
    for alpha in STRONG_CONTENTS:
        for delta in feasible_deltas(alpha):
            for parent, path, w in tree_nodes(alpha, delta):
                if parent is not None:
                    falls, runs = path[-1]
                    assert w == one_index_at_a_time(parent, len(path) + 1, falls, runs), \
                        (alpha, delta, parent, path[-1])
                    edges += 1
    assert edges == 15754


@settings(max_examples=60, deadline=None)
@given(instances())
def test_leaves_are_the_words_ending_in_one(instance):
    alpha, delta = instance
    expected = [w for w in cdt_groups(alpha)[delta] if w[-1] == 1]
    assert sorted(leaves(*instance)) == sorted(expected)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_phi_of_each_leaf_is_its_path(instance):
    depth = len(instance[0]) - 1
    for _, path, w in tree_nodes(*instance):
        if len(path) == depth:
            assert phi(w) == path
