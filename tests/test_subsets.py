"""Subset and multisubset families under interval rotations."""

import itertools
from math import gcd

import pytest

from csieve import subsets
from csieve.actions import OrbitDecomposition
from csieve.formulas import brute_gf
from csieve.qpoly import ResiduePoly, evaluate_at_root
from csieve.subsets import (by_profile, enumerate_g_chain, enumerate_g_de,
                            enumerate_m_alpha, enumerate_multisubsets,
                            enumerate_s_alpha, enumerate_s_kb, enumerate_subsets,
                            global_action,
                            interval_action, interval_profile, mbs, rotate_global,
                            rotate_within_intervals, shift_bijection, sum_prime,
                            sum_star, validate_chain, verify_chain_refinement,
                            verify_g_dd_trivial, verify_isomorphic_actions,
                            verify_mbs_csp, verify_multisubset_refinement,
                            verify_subset_star)
from csieve.sweeps import K_MAX, divisor_chains
from csieve.words import strong_compositions


def weak_compositions(k: int, parts: int) -> list[tuple]:
    """The weak compositions of k into `parts` parts in lexicographic
    order: the strong compositions of k + parts, less 1 per part."""
    return [tuple(a - 1 for a in alpha) for alpha in strong_compositions(k + parts, parts)]


def set_maxima(delta, n: int) -> list[int]:
    """The block maxima of a subset of Z/n, from its definition as a set."""
    s = set(delta)
    return [a for a in s if (a + 1) % n not in s]


def test_statistics():
    assert sum_prime((0, 1, 2)) == 0           # the minimal 3-subset scores 0
    assert sum_prime((1, 3)) == 3
    assert sum_star((0, 1, 4), (2, 1)) == 4


def test_interval_profile_and_rotations():
    assert interval_profile((0, 2, 5), 6, 3) == (2, 1)
    assert interval_profile((0, 0, 4), 6, 2) == (2, 0, 1)
    # simultaneous rotation of every 4-interval of a multisubset
    assert rotate_within_intervals((0, 0, 0, 2, 2, 3), 4, 4) == (0, 1, 1, 1, 3, 3)
    assert rotate_global((0, 3), 4, 2) == (1, 2)
    with pytest.raises(ValueError):
        rotate_within_intervals((0,), 6, 4)


def test_table_rotations_equal_the_arithmetic_formula():
    def power(rotate, a, n, d, step):
        for _ in range(step):
            a = rotate(a, n, d)
        return a

    for n in range(1, 13):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            for step in range(d + 1):
                interval = [d * (x // d) + (x % d + step) % d for x in range(n)]
                shift = [(x + step * (n // d)) % n for x in range(n)]
                for x in range(n):
                    assert power(rotate_within_intervals, (x,), n, d, step) == (interval[x],)
                    assert power(rotate_global, (x,), n, d, step) == (shift[x],)
                multiset = (0,) + tuple(range(n))
                assert power(rotate_within_intervals, multiset, n, d, step) == tuple(
                    sorted(interval[x] for x in multiset))
                assert power(rotate_global, multiset, n, d, step) == tuple(
                    sorted(shift[x] for x in multiset))


def test_bound_steps_equal_the_one_subset_rotations():
    for n in range(1, 11):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            interval = [d * (x // d) + (x % d + 1) % d for x in range(n)]
            shift = [(x + n // d) % n for x in range(n)]
            for k in range(5):
                for enum in (itertools.combinations, itertools.combinations_with_replacement):
                    carrier = tuple(enum(range(n), k))
                    by_interval = interval_action(n, d, carrier)
                    by_shift = global_action(n, d, carrier)
                    assert by_interval.order == by_shift.order == d
                    for a in carrier:
                        assert by_interval.step(a) == rotate_within_intervals(a, n, d) == tuple(
                            sorted(interval[x] for x in a))
                        assert by_shift.step(a) == rotate_global(a, n, d) == tuple(
                            sorted(shift[x] for x in a))
    for action in (interval_action, global_action):
        with pytest.raises(ValueError, match="d must divide n"):
            action(6, 4, ())
        with pytest.raises(ValueError, match="d must divide n"):
            action(6, 0, ())


def test_profile_enumerations():
    assert set(enumerate_s_alpha(4, 2, (1, 1))) == {
        (0, 2), (0, 3), (1, 2), (1, 3)}
    assert set(enumerate_m_alpha(4, 2, (2, 0))) == {(0, 0), (0, 1), (1, 1)}
    assert list(enumerate_m_alpha(2, 2, (0,))) == [()]


def test_profile_enumeration_equals_the_product_over_all_parts():
    # zero parts get no choice list; the product over every part, each zero
    # part contributing its one empty choice, gives the same tuples in order
    join = itertools.chain.from_iterable
    for n in range(1, 13):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            for k in range(5):
                for alpha in weak_compositions(k, n // d):
                    for chooser in (itertools.combinations,
                                    itertools.combinations_with_replacement):
                        per_interval = [list(chooser(range(j * d, (j + 1) * d), a))
                                        for j, a in enumerate(alpha)]
                        want = [tuple(join(p)) for p in itertools.product(*per_interval)]
                        got = list(subsets._enumerate_profile(n, d, alpha, chooser))
                        assert got == want, (n, d, alpha, chooser)


@pytest.mark.parametrize("enumerate_group, enumerate_alpha", [
    (enumerate_multisubsets, enumerate_m_alpha),
    (enumerate_subsets, enumerate_s_alpha)])
def test_profile_buckets_equal_the_single_instance_enumeration(enumerate_group,
                                                               enumerate_alpha):
    # the one pass per (n, d, k) the sweeps make, against the profile
    # enumeration the single-instance path reads: the same members in the
    # same order, and a bucket for exactly the nonempty profiles (a subset
    # has at most d elements in a d-interval)
    multisubsets = enumerate_group is enumerate_multisubsets
    for n in range(1, 13):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            for k in range(K_MAX + 1):
                buckets = by_profile(enumerate_group(n, k), n, d)
                profiles = [alpha for alpha in weak_compositions(k, n // d)
                            if multisubsets or max(alpha) <= d]
                assert sorted(buckets) == profiles, (n, d, k)
                for alpha in profiles:
                    assert buckets[alpha] == list(enumerate_alpha(n, d, alpha)), (n, d, alpha)


def test_gcd_families_worked_example():
    # n = 4, k = 2, d = 2
    assert set(enumerate_g_de(4, 2, 2, 1)) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert set(enumerate_g_de(4, 2, 2, 2)) == {(0, 1), (2, 3)}


def test_chain_family_and_gf():
    chain = validate_chain(4, 2, (1, 2, 4))
    family = list(enumerate_g_chain(4, 2, chain))
    assert set(family) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    # Sum' distribution q + 2q^2 + q^3, which is 2 + 2q mod q^2 - 1
    tally = {}
    for a in family:
        tally[sum_prime(a)] = tally.get(sum_prime(a), 0) + 1
    assert tally == {1: 1, 2: 2, 3: 1}
    assert brute_gf(family, 2, sum_prime) == ResiduePoly(2, (2, 2))


def test_gcd_families_are_the_filter_definition():
    # generated from profiles; the definition filters every k-subset
    for n in range(1, 13):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for k in range(n + 1):
            every = list(itertools.combinations(range(n), k))
            for d in divisors:
                for e in (e for e in divisors if d % e == 0):
                    family = list(enumerate_g_de(n, k, d, e))
                    assert len(family) == len(set(family))
                    assert sorted(family) == [
                        a for a in every if gcd(d, *interval_profile(a, n, d)) == e]
            for chain in divisor_chains(n, k):
                family = list(enumerate_g_chain(n, k, chain))
                assert len(family) == len(set(family))
                assert sorted(family) == [
                    a for a in every
                    if all(gcd(big, *interval_profile(a, n, big)) == small
                           for small, big in zip(chain, chain[1:]))]


def test_chain_family_skips_trivial_unit_entries():
    # gcd(1, profile) == 1 always: a repeated 1 leaves the family unchanged
    assert list(enumerate_g_chain(6, 3, (1, 1, 3, 6))) == list(
        enumerate_g_chain(6, 3, (1, 3, 6)))
    assert list(enumerate_g_chain(1, 1, (1, 1))) == [(0,)]


def test_validate_chain_errors():
    with pytest.raises(ValueError):
        validate_chain(4, 2, (2,))           # too short
    with pytest.raises(ValueError):
        validate_chain(4, 2, (1, 4))         # missing gcd(n, k) before n
    with pytest.raises(ValueError):
        validate_chain(6, 4, (2, 5, 6))      # 5 does not divide 6


def test_verifiers_on_worked_examples():
    assert verify_chain_refinement(4, 2, (1, 2, 4)).holds
    assert verify_chain_refinement(4, 2, (2, 4)).holds
    assert verify_multisubset_refinement(4, 4, (3,)).holds
    assert verify_subset_star(6, 3, (2, 1)).holds
    assert verify_g_dd_trivial(4, 2, 2).holds
    assert verify_isomorphic_actions(6, 3, 2).holds


def test_chain_refinement_rejects_a_family_not_closed(monkeypatch):
    # the interval rotation of [0, 3] by 2-intervals takes (0, 2) to
    # (1, 3), which this family leaves out
    monkeypatch.setattr(subsets, "enumerate_g_chain", lambda n, k, chain: iter([(0, 2)]))
    verdict = verify_chain_refinement(4, 2, (1, 2, 4))
    assert verdict.holds is False
    assert verdict.witness == {"check": "closure", "element": (0, 2), "image": (1, 3)}


def test_chain_refinement_witnesses_an_orbit_size_not_dividing_e(monkeypatch):
    # (1, 2, 4) at k = 2 has e = 1 and d = 2: an orbit of size 1 would
    # need d / 1 = 2 to divide e
    monkeypatch.setattr(subsets, "orbits",
                        lambda action: OrbitDecomposition(((action.carrier[0],),)))
    verdict = verify_chain_refinement(4, 2, (1, 2, 4))
    assert verdict.holds is False
    assert verdict.witness == {"check": "orbit-divisibility", "orbit_size": 1}


def test_shift_bijection_raises_sum_prime_by_e():
    for n, d, alpha in [(8, 4, (2, 1)), (6, 3, (1, 2)), (12, 4, (2, 2, 0))]:
        apply, e = shift_bijection(n, d, alpha)
        for a in enumerate_s_alpha(n, d, alpha):
            b = apply(a)
            assert interval_profile(b, n, d) == interval_profile(a, n, d)
            assert (sum_prime(b) - sum_prime(a)) % d == e % d


def test_mbs_values():
    # subsets of Z/5 with blocks {0} and {2,3}: maxima 0+1 and 3+1
    assert mbs((0, 2, 3), 5) == 5
    assert subsets._block_maxima((0, 2, 3), 5) == [0, 3]
    # a block wrapping through n-1 to 0 has its maximum inside
    assert mbs((0, 4), 5) == 1
    assert subsets._block_maxima((0, 4), 5) == [0]


def test_set_free_block_count_equals_the_set_definition():
    for n in range(1, 11):
        for k in range(n + 1):
            for a in itertools.combinations(range(n), k):
                want = set_maxima(a, n)
                assert subsets._block_maxima(a, n) == sorted(want)
                for order in (a, a[::-1]):
                    assert mbs(order, n) == sum(x + 1 for x in want)
                assert subsets._sorted_mbs(a, n) == sum(x + 1 for x in want)
            for b in range(k + 1):
                assert list(enumerate_s_kb(n, k, b)) == [
                    a for a in itertools.combinations(range(n), k)
                    if len(set_maxima(a, n)) == b]


def test_block_buckets_are_the_block_classes():
    # every k-subset has at most k blocks, so the k + 1 buckets hold them
    # all; enumerate_s_kb hands out one of them, and nothing past them
    for n in range(1, 11):
        for k in range(n + 1):
            assert subsets.subsets_by_blocks(n, k) == [
                [a for a in itertools.combinations(range(n), k) if len(set_maxima(a, n)) == b]
                for b in range(k + 1)]
            assert list(enumerate_s_kb(n, k, -1)) == list(enumerate_s_kb(n, k, k + 1)) == []
    assert verify_mbs_csp(5, 3, 2, subsets.subsets_by_blocks(5, 3)[2]).holds


def test_g_dd_not_fixed_witness_is_the_first_moved_member(monkeypatch):
    # a step that moves one member out of the carrier (the rescan after
    # NotClosed), or swaps two members (read from the successor): the
    # witness is the member a per-member loop names first
    n, k, d = 8, 4, 2
    carrier = list(enumerate_g_de(n, k, d, d))
    assert len(carrier) == 6
    real = subsets.interval_action

    def first_failing(step):
        for a in carrier:
            if step(a) != a:
                return {"check": "not-fixed", "subset": a}
            if sum_prime(a) % d:
                return {"check": "sum-prime-mod-d", "subset": a}

    for j, moved in enumerate(carrier):
        outside = (n,) * k
        for swap in ({moved: outside}, {moved: carrier[j - 1], carrier[j - 1]: moved}):
            def moving(n_, d_, carrier_, swap=swap):
                action = real(n_, d_, carrier_)
                inner = action.step
                action.step = lambda a: swap.get(a) or inner(a)
                return action

            monkeypatch.setattr(subsets, "interval_action", moving)
            verdict = verify_g_dd_trivial(n, k, d)
            assert verdict.holds is False
            assert verdict.witness == first_failing(moving(n, d, carrier).step)
            assert verdict.witness["subset"] == min(swap, key=carrier.index)


def test_mbs_golden_gf():
    carrier = list(enumerate_s_kb(5, 3, 2))
    assert len(carrier) == 5
    tally = {}
    for a in carrier:
        tally[mbs(a, 5)] = tally.get(mbs(a, 5), 0) + 1
    # the unreduced distribution is q^4 + q^5 + q^6 + q^7 + q^8
    assert tally == {4: 1, 5: 1, 6: 1, 7: 1, 8: 1}
    f = brute_gf(carrier, 5, lambda a: mbs(a, 5))
    assert f == ResiduePoly(5, (1, 1, 1, 1, 1))
    assert evaluate_at_root(f, 1) == 0
    assert evaluate_at_root(f, 0) == 5
    assert verify_mbs_csp(5, 3, 2).holds
