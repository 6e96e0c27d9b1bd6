"""Cyclic actions, orbit decompositions, and the dual CSP checker."""

import itertools

import pytest

from csieve.actions import (CyclicAction, check_csp, check_extension_hypotheses,
                            check_refinement, orbits, restrict_to_subgroup)
from csieve.qpoly import ResiduePoly, q_binomial, reduce


def shift_action(n):
    carrier = tuple(range(n))
    return CyclicAction(n, carrier, lambda x: (x + 1) % n)


def subset_rotation(n, k):
    carrier = tuple(itertools.combinations(range(n), k))
    return CyclicAction(n, carrier,
                        lambda a: tuple(sorted((x + 1) % n for x in a)))


def test_successor_validation():
    bad = CyclicAction(3, (0, 1, 2), lambda x: x + 10)
    with pytest.raises(ValueError):
        bad.successor()
    collapse = CyclicAction(2, (0, 1), lambda x: 0)
    with pytest.raises(ValueError):
        collapse.successor()


def test_orbits_and_fixed_points():
    a = subset_rotation(4, 2)
    dec = orbits(a)
    assert sorted(dec.sizes) == [2, 4]


def test_restrict_to_subgroup():
    a = shift_action(6)
    sub = restrict_to_subgroup(a, 3)     # step by 2
    assert sub.order == 3
    assert sub.step(0) == 2
    assert sorted(orbits(sub).sizes) == [3, 3]
    with pytest.raises(ValueError):
        restrict_to_subgroup(a, 4)


def test_check_csp_subsets():
    # the classical example: k-subsets of [n] under rotation with the
    # q-binomial coefficient
    for n, k in [(4, 2), (5, 2), (6, 3), (6, 2), (7, 3)]:
        a = subset_rotation(n, k)
        f = reduce(q_binomial(n, k), n)
        assert check_csp(a, f).holds


def test_check_csp_failure_witness():
    a = shift_action(4)
    wrong = ResiduePoly(4, (4, 0, 0, 0))     # constant 4 is not the orbit GF
    verdict = check_csp(a, wrong)
    assert not verdict.holds
    assert verdict.witness["k"] >= 1


def test_check_csp_modulus_mismatch():
    with pytest.raises(ValueError):
        check_csp(shift_action(4), ResiduePoly.zero(5))


def test_check_refinement_closure():
    a = subset_rotation(4, 2)
    closed = [s for s in a.carrier if (s[1] - s[0]) in (1, 3)]
    assert len(closed) == 4     # one free orbit of cyclically adjacent pairs
    assert check_refinement(a, closed, ResiduePoly(4, (1, 1, 1, 1))).holds
    with pytest.raises(ValueError):
        check_refinement(a, [(0, 1)], ResiduePoly.zero(4))


def test_extension_hypotheses_free_action():
    # free orbit of size 4 with g = 4: everything holds
    a = shift_action(4)
    f = ResiduePoly(4, (1, 1, 1, 1))
    report = check_extension_hypotheses(a, 4, f)
    assert report.hypotheses_hold
    assert report.full_csp.holds


def test_extension_hypotheses_detect_failure():
    # the right subgroup polynomial but the wrong period: hypotheses fail
    a = shift_action(4)
    f = ResiduePoly(4, (2, 0, 2, 0))
    report = check_extension_hypotheses(a, 2, f)
    assert not report.hypotheses_hold or report.full_csp.holds
