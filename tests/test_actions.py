"""Cyclic actions, orbit decompositions, and the dual CSP checker."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from csieve import actions, qpoly, subsets
from csieve.actions import (CyclicAction, NotBijective, NotClosed, Verdict, WrongOrder,
                            check_csp, check_extension, check_refinement,
                            orbits, restrict_to_subgroup)
from csieve.formulas import brute_gf
from csieve.qpoly import ResiduePoly, evaluate_at_root, orbit_gf, q_binomial, reduce


def shift_action(n):
    carrier = tuple(range(n))
    return CyclicAction(n, carrier, lambda x: (x + 1) % n)


def subset_rotation(n, k):
    carrier = tuple(itertools.combinations(range(n), k))
    return CyclicAction(n, carrier,
                        lambda a: tuple(sorted((x + 1) % n for x in a)))


def test_successor_validation():
    # the first element in carrier order whose image leaves the carrier
    bad = CyclicAction(3, (2, 0, 1), lambda x: x + 2)
    with pytest.raises(NotClosed) as exc:
        bad.successor()
    assert (exc.value.element, exc.value.image) == (2, 4)
    # every check turns it into a verdict: one that escapes is a fault
    # (exit 3), not bad usage (exit 2)
    assert not issubclass(NotClosed, ValueError)
    assert check_csp(bad, ResiduePoly.zero(3)) == Verdict(
        False, {"check": "closure", "element": 2, "image": 4})
    collapse = CyclicAction(2, (0, 1), lambda x: 0)
    with pytest.raises(NotBijective, match="not a bijection"):
        collapse.successor()


def test_successor_is_a_permutation_of_carrier_indices():
    carrier = ("c", "a", "b")
    a = CyclicAction(3, carrier, {"a": "b", "b": "c", "c": "a"}.get)
    perm = a.successor()
    assert perm == [1, 2, 0]
    assert all(a.step(carrier[i]) == carrier[perm[i]] for i in range(3))
    assert [tuple(sorted(o)) for o in orbits(a).orbits if "b" in o] == [("a", "b", "c")]


def test_value_types_and_the_slots_action():
    assert Verdict(True) == (True, None)
    holds, witness = Verdict(False, {"k": 1})
    assert (holds, witness) == (False, {"k": 1})
    with pytest.raises(AttributeError):
        Verdict(True).holds = False
    a = CyclicAction(2, [0, 1], abs)
    assert a.carrier == (0, 1)
    assert repr(a) == "CyclicAction(order=2, carrier=(0, 1), step=<built-in function abs>)"
    with pytest.raises(AttributeError):
        a.cache = {}                 # no attributes beyond the slots
    assert orbits(a) == (((0,), (1,)),) and orbits(a) is orbits(a)


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


def test_check_csp_fails_both_methods_on_a_shifted_polynomial():
    # f shifted by q: method 1 and method 2 both fail, with no disagreement
    a = subset_rotation(6, 3)
    verdict = check_csp(a, reduce(q_binomial(6, 3), 6).shift(1))
    assert verdict == Verdict(False, {"k": 2, "fixed_points": 2, "evaluation": "non-integer"})


def test_check_csp_failure_witness():
    a = shift_action(4)
    wrong = ResiduePoly(4, (4, 0, 0, 0))     # constant 4 is not the orbit GF
    verdict = check_csp(a, wrong)
    assert not verdict.holds
    assert verdict.witness["k"] >= 1


def test_check_csp_modulus_mismatch():
    with pytest.raises(WrongOrder, match="polynomial modulus must equal the action order"):
        check_csp(shift_action(4), ResiduePoly.zero(5))


def test_an_empty_carrier_holds_exactly_for_a_zero_polynomial():
    # check_csp decides an empty carrier with a zero f before either method
    # runs; any other f goes through both, which fail together
    empty = CyclicAction(2, (), lambda x: x)
    assert check_csp(empty, ResiduePoly.zero(2)) == Verdict(True, None)
    assert empty._successor is None
    assert check_csp(empty, ResiduePoly(2, (1, -1))) == Verdict(
        False, {"k": 1, "fixed_points": 0, "evaluation": 2})
    with pytest.raises(WrongOrder, match="polynomial modulus must equal the action order"):
        check_csp(CyclicAction(3, (), lambda x: x), ResiduePoly.zero(2))


def test_check_refinement_closure():
    a = subset_rotation(4, 2)
    closed = [s for s in a.carrier if (s[1] - s[0]) in (1, 3)]
    assert len(closed) == 4     # one free orbit of cyclically adjacent pairs
    assert check_refinement(a, closed, ResiduePoly(4, (1, 1, 1, 1))).holds
    # a sub-carrier that the step leaves gets the closure verdict, not an error
    assert check_refinement(a, [(0, 1)], ResiduePoly.zero(4)) == Verdict(
        False, {"check": "closure", "element": (0, 1), "image": (1, 2)})


def test_extension_hypotheses_free_action():
    # free orbit of size 4 with g = 4: everything holds
    assert check_extension(shift_action(4), 4, ResiduePoly(4, (1, 1, 1, 1))) == Verdict(True, None)


def test_extension_hypotheses_detect_failure():
    # f has period 2 and the orbit of size 4 has n/|O| = 1 dividing g = 2,
    # but f is not the orbit sum: the subgroup CSP fails at the step of
    # order 2, which fixes nothing while f refolded mod q^2 - 1 evaluates
    # to 4 there, and the full CSP fails likewise
    f = ResiduePoly(4, (2, 0, 2, 0))
    assert check_extension(shift_action(4), 2, f) == Verdict(False, {
        "subgroup_csp": {"holds": False,
                         "witness": {"k": 1, "fixed_points": 0, "evaluation": 4}},
        "period_ok": True,
        "orbit_divisibility_ok": True,
        "full_csp": {"holds": False,
                     "witness": {"k": 2, "fixed_points": 0, "evaluation": 4}}})


def reference_csp(carrier, step, n, f) -> Verdict:
    """Method 1 on elements: step each element k times, evaluate f at
    omega^k for every k."""
    for k in range(n):
        fixed = 0
        for x in carrier:
            y = x
            for _ in range(k):
                y = step(y)
            fixed += y == x
        value = evaluate_at_root(f, k)
        if value != fixed:
            return Verdict(False, {"k": k, "fixed_points": fixed,
                                   "evaluation": "non-integer" if value is None else value})
    return Verdict(True, None)


def draw_polynomial(draw, n, sizes, extra=()):
    """The orbit-sum f of the orbit sizes, f with one coefficient moved, f
    shifted by q, a random residue, or a polynomial of `extra`, a mapping
    from further kinds to their polynomials."""
    coeffs = [0] * n
    for size in sizes:
        coeffs = [c + e for c, e in zip(coeffs, orbit_gf(n, size).coeffs)]
    kind = draw(st.sampled_from(["orbit-sum", "moved", "shifted", "random", *extra]))
    if kind in extra:
        return extra[kind]
    if kind == "moved":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        coeffs[i] -= 1
        coeffs[j] += 1
    elif kind == "random":
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    f = ResiduePoly(n, tuple(coeffs))
    return f.shift(1) if kind == "shifted" else f


@st.composite
def actions_with_polynomials(draw):
    """An order-n action given by random cycle lengths dividing n, on at
    most 30 elements in random carrier order, with a polynomial of
    `draw_polynomial`; returns the action, its orbit sizes, the step as
    the reference applies it, and the polynomial."""
    n = draw(st.integers(1, 12))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    sizes = []
    for size in draw(st.lists(st.sampled_from(divisors), max_size=12)):
        if sum(sizes) + size <= 30:
            sizes.append(size)
    step, start = {}, 0
    for size in sizes:
        cycle = [f"x{i}" for i in range(start, start + size)]
        step.update(zip(cycle, cycle[1:] + cycle[:1]))
        start += size
    carrier = tuple(draw(st.permutations(sorted(step))))
    f = draw_polynomial(draw, n, sizes)
    return CyclicAction(n, carrier, step.__getitem__), sizes, step.__getitem__, f


@st.composite
def subset_actions_with_polynomials(draw):
    """The interval or global action of order d | n on every k-subset or
    every k-multisubset of [0, n-1] (k <= 3), in random carrier order,
    with a polynomial of `draw_polynomial` or the Sum generating
    function; the reference steps with the one-subset rotation and takes
    the orbit sizes from it."""
    n = draw(st.integers(1, 8))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    k = draw(st.integers(0, 3))
    enum = draw(st.sampled_from([itertools.combinations,
                                 itertools.combinations_with_replacement]))
    carrier = tuple(draw(st.permutations(list(enum(range(n), k)))))
    make, rotate = draw(st.sampled_from([
        (subsets.interval_action, subsets.rotate_within_intervals),
        (subsets.global_action, subsets.rotate_global)]))
    reference_step = lambda a: rotate(a, n, d)      # noqa: E731
    sizes, seen = [], set()
    for x in carrier:
        if x not in seen:
            orbit, y = [x], reference_step(x)
            while y != x:
                orbit.append(y)
                y = reference_step(y)
            seen.update(orbit)
            sizes.append(len(orbit))
    f = draw_polynomial(draw, d, sizes, {"sum": brute_gf(carrier, d, sum)})
    return make(n, d, carrier), sizes, reference_step, f


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 99), unique=True, max_size=30).flatmap(
    lambda carrier: st.tuples(st.just(carrier), st.permutations(carrier))))
def test_orbits_are_the_cycles_of_the_successor(case):
    carrier, images = case
    step = dict(zip(carrier, images))
    a = CyclicAction(1, carrier, step.__getitem__)
    perm = a.successor()
    cycles = set()
    for start in range(len(perm)):
        cycle, i = {start}, perm[start]
        while i != start:
            cycle.add(i)
            i = perm[i]
        cycles.add(frozenset(cycle))
    dec = orbits(a)
    assert sorted(dec.sizes) == sorted(map(len, cycles))
    # a partition of the carrier, each orbit listed in cycle order
    index = {x: i for i, x in enumerate(carrier)}
    assert {frozenset(map(index.get, orbit)) for orbit in dec.orbits} == cycles
    assert sum(dec.sizes) == len(carrier)
    for orbit in dec.orbits:
        assert all(step[x] == y for x, y in zip(orbit, orbit[1:] + orbit[:1]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(actions_with_polynomials(), subset_actions_with_polynomials()))
def test_check_csp_equals_the_element_level_reference(case):
    a, sizes, reference_step, f = case
    assert sorted(orbits(a).sizes) == sorted(sizes)
    assert check_csp(a, f) == reference_csp(a.carrier, reference_step, a.order, f)


def test_a_subset_step_with_a_shifted_table_fails(monkeypatch):
    # the interval table shifted by one element (x goes where x + 1 went):
    # every instance below holds with the true table, and with the shifted
    # one its step leaves the profile carrier
    instances = [(subsets.verify_multisubset_refinement, (4, 2, (1, 2))),
                 (subsets.verify_multisubset_refinement, (6, 3, (2, 1))),
                 (subsets.verify_subset_star, (6, 3, (1, 2))),
                 (subsets.verify_subset_star, (8, 4, (2, 2))),
                 (subsets.verify_chain_refinement, (6, 3, (1, 3, 6)))]
    for verify, args in instances:
        assert verify(*args).holds, (verify.__name__, args)
    table = subsets._interval_table
    monkeypatch.setattr(subsets, "_interval_table",
                        lambda n, d: table(n, d)[1:] + table(n, d)[:1])
    for verify, args in instances:
        verdict = verify(*args)
        assert not verdict.holds and verdict.witness["check"] == "closure", (
            verify.__name__, args)


def test_an_orbit_size_that_does_not_divide_the_order_is_a_fault(monkeypatch):
    # the same shifted table on all 2-subsets of [0, 5], which every step of
    # the universe preserves: it is a 6-cycle, so the order-3 action has
    # orbits of size 6
    table = subsets._interval_table
    monkeypatch.setattr(subsets, "_interval_table",
                        lambda n, d: table(n, d)[1:] + table(n, d)[:1])
    carrier = tuple(itertools.combinations(range(6), 2))
    action = subsets.interval_action(6, 3, carrier)
    assert sorted(orbits(action).sizes) == [3, 6, 6]
    with pytest.raises(WrongOrder, match="orbit size 6 does not divide the action order 3"):
        check_csp(action, brute_gf(carrier, 3, sum))


def test_an_order_1_check_divides_no_polynomial(monkeypatch):
    # f(1) is the sum of the coefficients and step^0 fixes the whole
    # carrier, so a check of order 1 reads both without reducing by any
    # cyclotomic polynomial, whether it holds or fails
    calls = []
    real = qpoly._cyclotomic_tail
    monkeypatch.setattr(qpoly, "_cyclotomic_tail", lambda m: calls.append(m) or real(m))
    carrier = tuple(itertools.combinations_with_replacement(range(4), 2))
    action = subsets.interval_action(4, 1, carrier)
    assert check_csp(action, brute_gf(carrier, 1, sum)) == (True, None)
    assert check_csp(action, ResiduePoly(1, (9,))) == (
        False, {"k": 0, "fixed_points": 10, "evaluation": 9})
    assert calls == []
    # an order-2 check reduces its two-term fold by Phi_2 = 1 + q
    assert check_csp(subsets.interval_action(4, 2, carrier), brute_gf(carrier, 2, sum)).holds
    assert calls == [2]
    assert real(2) == (1, ((0, 1),))


def test_method_1_evaluates_only_at_0_and_the_proper_divisors(monkeypatch):
    # step^k fixes what step^gcd(n, k) fixes, and f(omega^k) depends only
    # on gcd(n, k): every verdict, with its first failing k, is the
    # element-level reference's, read from k = 0 and the proper divisors
    # of n up to the first failing one
    calls = []
    real = actions.evaluate_at_root
    monkeypatch.setattr(actions, "evaluate_at_root",
                        lambda f, k: calls.append(k) or real(f, k))
    for n in range(1, 9):
        divisors = [0] + [k for k in range(1, n) if n % k == 0]
        for size in range(n + 1):
            a = subset_rotation(n, size)
            orbit_sum = ResiduePoly.zero(n)
            for o in orbits(a).sizes:
                orbit_sum = orbit_sum + orbit_gf(n, o)
            for j in range(n):
                f = orbit_sum.shift(j)
                calls.clear()
                verdict = check_csp(a, f)
                assert verdict == reference_csp(a.carrier, a.step, n, f), (n, size, j)
                last = verdict.witness["k"] if verdict.witness else divisors[-1]
                assert calls == divisors[:divisors.index(last) + 1], (n, size, j)


def test_method_1_composes_the_successor_up_to_the_largest_proper_divisor():
    # at order 14, step^2..step^7 (6 compositions) and no further; the
    # successor is read through a list that counts its reads
    class Reads(list):
        count = 0

        def __getitem__(self, i):
            Reads.count += 1
            return list.__getitem__(self, i)

    a = shift_action(14)
    a._successor = Reads(a.successor())
    orbits(a)                        # method 2's decomposition, read beforehand
    Reads.count = 0
    assert check_csp(a, orbit_gf(14, 14)).holds
    assert Reads.count == 6 * 14
    Reads.count = 0                  # a failure at k = 1 composes nothing
    assert check_csp(a, ResiduePoly(14, (0, 14) + (0,) * 12)).witness["k"] == 1
    assert Reads.count == 0
