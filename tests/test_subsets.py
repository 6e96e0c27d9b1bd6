"""Subset and multisubset families under interval rotations."""

import pytest

from csieve import subsets
from csieve.qpoly import ResiduePoly, evaluate_at_root
from csieve.subsets import (block_maxima_count, enumerate_g_chain,
                            enumerate_g_de, enumerate_m_alpha,
                            enumerate_s_alpha, enumerate_s_kb,
                            interval_profile, mbs, rotate_global,
                            rotate_within_intervals, shift_bijection,
                            subset_from_two_letter_word, sum_prime, sum_star,
                            validate_chain, verify_chain_refinement,
                            verify_g_dd_trivial, verify_isomorphic_actions,
                            verify_mbs_csp, verify_multisubset_refinement,
                            verify_subset_star)


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


def test_profile_enumerations():
    assert set(enumerate_s_alpha(4, 2, (1, 1))) == {
        (0, 2), (0, 3), (1, 2), (1, 3)}
    assert set(enumerate_m_alpha(4, 2, (2, 0))) == {(0, 0), (0, 1), (1, 1)}
    assert list(enumerate_m_alpha(2, 2, (0,))) == [()]


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
    folded = ResiduePoly.from_terms(2, tally)
    assert folded == ResiduePoly(2, (2, 2))


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
    assert block_maxima_count((0, 2, 3), 5) == 2
    # a block wrapping through n-1 to 0 has its maximum inside
    assert mbs((0, 4), 5) == 1
    assert block_maxima_count((0, 4), 5) == 1


def test_mbs_golden_gf():
    carrier = list(enumerate_s_kb(5, 3, 2))
    assert len(carrier) == 5
    tally = {}
    for a in carrier:
        tally[mbs(a, 5)] = tally.get(mbs(a, 5), 0) + 1
    # the unreduced distribution is q^4 + q^5 + q^6 + q^7 + q^8
    assert tally == {4: 1, 5: 1, 6: 1, 7: 1, 8: 1}
    f = ResiduePoly.from_terms(5, tally)
    assert evaluate_at_root(f, 1) == 0
    assert evaluate_at_root(f, 0) == 5
    assert verify_mbs_csp(5, 3, 2).holds


def test_two_letter_transport():
    assert subset_from_two_letter_word((1, 2, 1, 2)) == (1, 3)
    assert subset_from_two_letter_word((1, 1)) == ()
