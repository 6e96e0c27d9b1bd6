"""Closed forms for counts and maj generating functions against brute force."""

import itertools

import pytest

from csieve import formulas
from csieve.formulas import (closed_forms, count_w_alpha_delta, feasible_deltas,
                             is_nonempty, macmahon_check, maj_gf_mod_n, params,
                             period_g_check, tilde_maj_gf, vandermonde_check,
                             verify_flex_maj_equidistribution,
                             verify_flex_universal, verify_formula_vs_oracle,
                             verify_main_theorem)
from csieve.qpoly import ResiduePoly, monomial, orbit_gf, q_binomial, reduce
from csieve.words import cdt_groups, maj, strong_compositions


def test_params_derived_quantities():
    p = params((2, 2, 4), (0, 2, 2))
    assert (p.n, p.k, p.m) == (8, 4, 3)
    assert p.d == 4


def test_factors_golden():
    # (falls, delta_l, runs, alpha_l - delta_l) for letters 2 and 3
    assert params((4, 2, 3), (0, 2, 1)).factors() == [(4, 2, 2, 0), (4, 1, 3, 2)]


def test_is_nonempty_matches_enumeration():
    for alpha in [(2, 2), (3, 1), (1, 1), (2, 1, 1), (1, 1, 2)]:
        for delta in feasible_deltas(alpha):
            assert cdt_groups(alpha)[delta]
    # the multichoose factor vanishes when a letter has no run to land in
    assert not is_nonempty((1, 1), (0, 0))
    assert (0, 0) not in cdt_groups((1, 1))
    assert is_nonempty((1, 1), (0, 1))
    with pytest.raises(ValueError):
        is_nonempty((2, 2), (1, 1))     # delta_1 must be 0
    with pytest.raises(ValueError):
        is_nonempty((2, 2), (0, 3))     # delta_2 > alpha_2


def test_feasible_deltas_are_the_nonempty_points_of_the_box():
    for n in range(1, 11):
        for parts in range(1, min(5, n) + 1):
            for alpha in strong_compositions(n, parts):
                box = itertools.product(range(1), *(range(a + 1) for a in alpha[1:]))
                assert list(feasible_deltas(alpha)) == [
                    delta for delta in box if is_nonempty(alpha, delta)], alpha
    for alpha in [(), (2, 0, 1), (0, 2)]:
        with pytest.raises(ValueError):
            list(feasible_deltas(alpha))


def test_count_golden():
    assert count_w_alpha_delta((2, 2), (0, 2)) == 2
    assert count_w_alpha_delta((4, 2, 3), (0, 2, 1)) == 324
    assert count_w_alpha_delta((1, 1), (0, 0)) == 0
    # 324 = (9/4) * 144 leaves
    assert 324 * 4 == 9 * 144


def test_tilde_gf_golden():
    # W_{(2,2),(0,2)} ending in 1 is just 2121, with maj = 1 + 3
    assert tilde_maj_gf((2, 2), (0, 2)) == monomial(4)
    assert tilde_maj_gf((1, 1), (0, 0)) == ()


def test_maj_gf_mod_n_golden():
    # W_{(2,2),(0,2)} = {1212, 2121}: maj GF q^2 + q^4 == q^2 + 1 mod q^4-1
    assert maj_gf_mod_n((2, 2), (0, 2)) == ResiduePoly(4, (1, 0, 1, 0))


def test_inv_does_not_give_the_csp():
    # on {1212, 2121} the maj GF q^2 + q^4 sieves but the inv GF q + q^3
    # does not (it evaluates to -2 at omega_4^2 where 2 words are fixed)
    from csieve.actions import check_csp
    from csieve.formulas import brute_gf, rotation_action
    from csieve.words import inv
    words = ((1, 2, 1, 2), (2, 1, 2, 1))
    assert check_csp(rotation_action(4, words), brute_gf(words, 4, maj)).holds
    assert not check_csp(rotation_action(4, words), brute_gf(words, 4, inv)).holds


def test_verify_formula_vs_oracle_instances():
    for alpha, delta in [((2, 2), (0, 2)), ((3, 1, 1), (0, 1, 0)),
                         ((4, 2, 3), (0, 2, 1)), ((1, 1), (0, 0))]:
        assert verify_formula_vs_oracle(alpha, delta).holds


def test_verify_main_theorem_instances():
    assert verify_main_theorem((2, 2), (0, 2)).holds
    # the running example's class, letters compressed to 1, 2, 3
    assert verify_main_theorem((2, 2, 4), (0, 2, 2)).holds


def test_closed_forms_are_the_single_instance_forms():
    # every strong content with n <= 10 and at most 4 parts, the range of
    # sweep_formulas and sweep_vandermonde: one walk per content gives each
    # delta's forms, in the order of feasible_deltas
    pairs = 0
    for n in range(1, 11):
        for parts in range(1, min(4, n) + 1):
            for alpha in strong_compositions(n, parts):
                forms = list(closed_forms(alpha))
                assert [p.delta for p, _, _ in forms] == list(feasible_deltas(alpha))
                for p, count, tilde in forms:
                    assert p == params(alpha, p.delta)
                    assert count == count_w_alpha_delta(alpha, p.delta), p
                    assert tilde == tilde_maj_gf(alpha, p.delta), p
                    assert formulas._fold_tilde(p, tilde) == maj_gf_mod_n(alpha, p.delta), p
                    pairs += 1
    assert pairs == 2895


def test_vandermonde_multiplies_once_per_tree_edge(monkeypatch):
    # the tree of feasible_deltas((3, 3, 2, 2)) has an edge into each
    # prefix delta_1..delta_l, l >= 2, of a feasible delta; the closed forms
    # take two products per edge and one InstanceParams per leaf
    alpha = (3, 3, 2, 2)
    deltas = list(feasible_deltas(alpha))
    edges = {delta[:l] for delta in deltas for l in range(2, len(alpha) + 1)}
    for a in range(sum(alpha) + 1):
        for b in range(a + 1):
            q_binomial(a, b)        # cached before counting: building it multiplies too
    products, built = [], []
    real_mul, real_new = formulas.poly_mul, formulas.InstanceParams.__new__
    monkeypatch.setattr(formulas, "poly_mul",
                        lambda a, b: products.append(1) or real_mul(a, b))
    monkeypatch.setattr(formulas.InstanceParams, "__new__", staticmethod(
        lambda cls, alpha, delta: built.append(delta) or real_new(cls, alpha, delta)))
    assert vandermonde_check(alpha).holds
    assert len(products) == 2 * len(edges) < 2 * (len(alpha) - 1) * len(deltas)
    assert built == deltas
    # feasible_deltas, on the same walk, takes no product
    products.clear()
    assert list(feasible_deltas(alpha)) == deltas and not products


def test_vandermonde_golden():
    assert vandermonde_check((2, 2)).holds
    assert vandermonde_check((2, 2, 4)).holds


def test_period_g():
    assert period_g_check((2, 2), (0, 2)).holds
    assert period_g_check((4, 2, 3), (0, 2, 1)).holds


def test_macmahon_small():
    assert macmahon_check((2, 2)).holds
    assert macmahon_check((1, 2, 1)).holds


def test_flex_checks():
    assert verify_flex_maj_equidistribution((2, 2), (0, 2)).holds
    assert verify_flex_universal((1, 5, 5, 3, 1, 5, 5, 3)).holds
    assert verify_flex_universal((1, 1, 1)).holds


def test_maj_gf_division_is_exact():
    # the closed form divides by alpha_1 after reduction; an inexact
    # division would be a hard fault rather than a wrong answer
    for alpha, delta in [((4, 2, 3), (0, 2, 1)), ((3, 3), (0, 3))]:
        maj_gf_mod_n(alpha, delta)     # must not raise


def maj_gf_mod_n_by_product(alpha, delta):
    """The closed form as written: (q^n-1)/(q^d-1) times the tilde
    function mod q^n - 1, times d, divided by alpha_1."""
    p = params(alpha, delta)
    product = orbit_gf(p.n, p.n // p.d) * reduce(tilde_maj_gf(alpha, delta), p.n) * p.d
    assert not any(c % p.alpha[0] for c in product.coeffs)
    return ResiduePoly(p.n, tuple(c // p.alpha[0] for c in product.coeffs))


def test_maj_gf_mod_n_fold_equals_the_product_form():
    # every strong content with n <= 8 and every delta of its box, the
    # empty classes (zero residue) included
    boxes = empty = 0
    for n in range(1, 9):
        for parts in range(1, n + 1):
            for alpha in strong_compositions(n, parts):
                for delta in itertools.product([0], *(range(a + 1) for a in alpha[1:])):
                    gf = maj_gf_mod_n(alpha, delta)
                    assert gf == maj_gf_mod_n_by_product(alpha, delta), (alpha, delta)
                    boxes += 1
                    empty += not any(gf.coeffs)
    assert boxes > empty > 0


def test_maj_gf_mod_n_raises_on_an_inexact_division(monkeypatch):
    # a tilde function of 1 leaves d * 1 = 3 to divide by alpha_1 = 2
    monkeypatch.setattr(formulas, "tilde_maj_gf", lambda alpha, delta: (1,))
    with pytest.raises(RuntimeError, match="not divisible by alpha_1"):
        maj_gf_mod_n((2, 1), (0, 0))


def test_params_validation():
    with pytest.raises(ValueError):
        params((2, 0), (0, 0))       # alpha must be strong
    with pytest.raises(ValueError):
        params((2, 2), (0,))         # length mismatch


def test_params_is_a_validated_named_tuple():
    p = params((2, 2), (0, 2))
    assert p == ((2, 2), (0, 2)) and len(p) == 2
    assert repr(p) == "InstanceParams(alpha=(2, 2), delta=(0, 2))"
    with pytest.raises(AttributeError):
        p.alpha = (4,)
    with pytest.raises(ValueError, match="delta_1 = 0"):
        p._replace(delta=(1, 2))
    with pytest.raises(ValueError, match="same number of parts"):
        type(p)._make(((2, 2), (0,)))
