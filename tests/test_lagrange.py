import functools
import os
import subprocess
import sys

import pytest

from nclag import algebra, compositions as comps, lagrange, parking
from nclag.algebra import BasisMismatch, NSymElement, TensorElement


def transition_matrix(source, target, n):
    """Entry [i][j] is the coefficient of target^I in source^J, I and J the
    i-th and j-th compositions of n in reverse lexicographic order, read
    off `algebra.convert`."""
    order = comps.all_compositions(n)
    columns = [algebra.convert(NSymElement.monomial(source, j), target) for j in order]
    return [[column.coeff(i) for column in columns] for i in order]


def g_table(N):
    """The cached components g_0..g_N of g as a given series."""
    lagrange.g_component(N)
    with lagrange._cache_lock:
        return lagrange.GradedSeries(lagrange._series(1).components[: N + 1])


def test_cubic_component_on_s():
    g3 = lagrange.g_component(3)
    assert g3.terms == {(3,): 1, (2, 1): 2, (1, 2): 1, (1, 1, 1): 1}


def test_component_coefficients_count_parking_types():
    for n in range(8):
        assert lagrange.gk_component_via_ndpf(1, n) == lagrange.g_component(n)


def test_degree_zero_is_one():
    assert lagrange.g_component(0) == NSymElement.one("S")


def test_transition_matrices_degree_three():
    assert transition_matrix("G", "S", 3) == [
        [1, 0, 0, 0],
        [2, 1, 0, 0],
        [1, 0, 1, 0],
        [1, 1, 1, 1],
    ]
    assert transition_matrix("S", "G", 3) == [
        [1, 0, 0, 0],
        [-2, 1, 0, 0],
        [-1, 0, 1, 0],
        [2, -1, -1, 1],
    ]


def test_transition_matrices_are_inverse():
    for n in range(1, 6):
        a = transition_matrix("G", "S", n)
        b = transition_matrix("S", "G", n)
        size = len(a)
        for i in range(size):
            for j in range(size):
                dot = sum(a[i][k] * b[k][j] for k in range(size))
                assert dot == (1 if i == j else 0)


def test_generator_on_g_matches_recipe_route():
    for n in range(1, 8):
        assert lagrange.s_generator_on_g(n) == lagrange.s_to_g_via_recipe(n)


def test_k_analogue_three_routes_agree():
    for k in (2, 3):
        for n in range(7):
            a = lagrange.gk_component(k, n)
            assert a == lagrange.gk_component_iterative(k, n)
            assert a == lagrange.gk_component_via_phi(k, n)


@pytest.mark.parametrize("k, n", [(k, n) for k in range(1, 13) for n in range(13 // k)])
def test_phi_route_equals_the_projection_of_all_terms(k, n):
    want = algebra.phi_k(lagrange.g_component(k * n), k)
    assert lagrange.gk_component_via_phi(k, n) == want


def test_k_analogue_iterative_route_for_k_up_to_four():
    for k in range(1, 5):
        for n in range(9):
            assert lagrange.gk_component_iterative(k, n) == lagrange.gk_component(k, n)


def series_product_component(a, b, d):
    """(AB)_d of two graded series by plain convolution."""
    return sum((a.component(e) * b.component(d - e) for e in range(d + 1)), NSymElement.zero("S"))


def convolution_powers(series):
    """power(p, d) = (X^p)_d, each power the plain convolution of X with the
    one below it: the reference for the solver's recurrence."""

    @functools.cache
    def power(p, d):
        if p == 0:
            return NSymElement.one("S") if d == 0 else NSymElement.zero("S")
        return sum(
            (series.component(e) * power(p - 1, d - e) for e in range(d + 1)),
            NSymElement.zero("S"),
        )

    return power


@pytest.mark.parametrize("k", [1, 2, 3])
def test_recurrence_filled_powers_equal_the_convolution(k):
    N = 12
    solved = lagrange.solve_functional_equation(lagrange._s_generator, lambda m: k * m, N)
    plain = convolution_powers(solved)
    keys = [(p, e) for p in range(2, N) for e in range(1, N + 1 - p)]
    assert set(keys) <= set(solved._pw)
    for p, e in keys:
        assert solved._pw[p, e] == plain(p, e), (p, e)
    # and the components solve X = 1 + sum_n S_n X^(kn), convolution powers only
    for d in range(1, N + 1):
        rhs = sum(
            (lagrange._s_generator(n) * plain(k * n, d - n) for n in range(1, d + 1)),
            NSymElement.zero("S"),
        )
        assert solved.component(d) == rhs, d
    # a given series fills its powers by the same recurrence
    given = lagrange.GradedSeries(solved.components)
    assert all(given.power_component(p, e) == plain(p, e) for p, e in keys)


def test_extending_in_steps_equals_one_solve():
    stepped = lagrange.solve_functional_equation(lagrange._s_generator, lambda m: m, 12)
    stepped.extend(16)
    fresh = lagrange.solve_functional_equation(lagrange._s_generator, lambda m: m, 16)
    assert stepped.components == fresh.components
    assert stepped._pw == fresh._pw
    assert fresh.components == [lagrange.g_component(d) for d in range(17)]


def test_a_series_starts_with_the_unit():
    # the recurrence takes (X^p)_0 = 1 for every p
    for start in ([], [NSymElement.zero("S")], [NSymElement.monomial("S", (), 2)]):
        with pytest.raises(ValueError, match="unit"):
            lagrange.GradedSeries(start)


def test_a_series_lives_in_one_basis_whose_product_concatenates():
    # the engine multiplies by concatenation, which is the product on S,
    # L and G (leg by leg on tensors) and on no other basis
    for unit in (NSymElement.one("R"), TensorElement.one(("G", "F"))):
        with pytest.raises(BasisMismatch, match="concatenation"):
            lagrange.GradedSeries([unit])
    with pytest.raises(BasisMismatch, match="share a basis"):
        lagrange.GradedSeries([NSymElement.one("S"), NSymElement.monomial("G", (1,))])


def test_negative_degree_is_rejected():
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="nonnegative"):
            lagrange.gk_component(k, -1)


def test_every_solve_rejects_a_negative_degree():
    # below degree 0 there is no series: each solve refuses N < 0, not only
    # the forward one, instead of answering with the bare unit
    solves = (
        lambda N: lagrange.solve_functional_equation(
            lambda n: NSymElement.monomial("S", (n,)), lambda n: n, N
        ),
        lambda N: lagrange.coefficients_of(lagrange.sigma_series(3), lambda n: n, N),
        lagrange.sigma_series,
        lagrange.free_cumulants,
    )
    for solve in solves:
        with pytest.raises(ValueError, match="N must be nonnegative"):
            solve(-1)
        assert solve(0).components == [NSymElement.one("S")]


def test_k_analogue_cubic_display():
    h3 = lagrange.gk_component(2, 3)
    assert h3.terms == {(3,): 1, (2, 1): 4, (1, 2): 2, (1, 1, 1): 5}


def test_k_analogue_counts_k_parking_types():
    for k in (2, 3):
        for n in range(6):
            assert lagrange.gk_component_via_ndpf(k, n) == lagrange.gk_component(k, n)


def test_series_inverse_is_two_sided():
    g = g_table(6)
    inv = lagrange.series_inverse(g)
    for d in range(7):
        want = NSymElement.one("S") if d == 0 else NSymElement.zero("S")
        assert series_product_component(g, inv, d) == want
        assert series_product_component(inv, g, d) == want


def test_free_cumulant_functional_equation():
    inverse = lagrange.series_inverse(lagrange._neg_g_series(6))
    assert inverse.components == lagrange.free_cumulants(6).components


def test_cumulant_reciprocity():
    for n in range(1, 7):
        assert lagrange.free_cumulants(n).component(n).terms == lagrange.s_generator_on_g(n).terms


def test_negated_alphabet_inverse_identity():
    inverse = lagrange.series_inverse(lagrange._neg_g_series(6))
    assert lagrange.neg_g_inverse_fixed_point(6) == inverse.components


def test_negated_alphabet_four_routes_agree():
    for n in range(7):
        a = lagrange.g_neg(n)
        assert a == lagrange.g_neg_via_pairing(n)
        assert a == lagrange.g_neg_via_counting(n)
        assert a == lagrange.g_neg_via_doubling(n)


def test_negated_alphabet_quartic_display():
    g4n = lagrange.g_neg(4)
    assert g4n.terms == {
        (4,): -1,
        (3, 1): 7,
        (2, 2): 5,
        (1, 3): 3,
        (2, 1, 1): -25,
        (1, 2, 1): -18,
        (1, 1, 2): -12,
        (1, 1, 1, 1): 55,
    }


def test_negated_alphabet_absolute_sums():
    sums = [
        sum(abs(c) for c in lagrange.g_neg(n).terms.values()) for n in range(1, 5)
    ]
    assert sums == [1, 4, 21, 126]


def test_negated_alphabet_s_coefficients():
    for n in range(1, 6):
        neg = algebra.neg_alphabet(lagrange.g_component(n))
        assert neg == lagrange.g_neg_s_via_counting(n)


def test_doubled_pairing_identity():
    # coefficient by coefficient: the doubled-index pairing count equals the
    # parking-function count of the doubled-plus-one type
    for n in range(1, 6):
        assert lagrange.g_neg_via_pairing(n) == lagrange.g_neg_via_counting(n)


def test_antipode_three_routes_agree():
    for n in range(7):
        a = lagrange.antipode_g(n)
        assert a == lagrange.antipode_g_four_step(n)
        assert a == lagrange.antipode_g_formula(n)


def antipode_formula_over_all_pairs(n):
    """The formula route with v_pairing taken against every composition."""
    terms = {}
    for i in comps.all_compositions(n):
        total = sum(
            lagrange.v_pairing(i, j) * parking.ndpf_count_of_type(comps.mirror(j))
            for j in comps.all_compositions(n)
        )
        terms[i] = (-1) ** n * total
    return NSymElement("G", terms)


def test_antipode_formula_equals_the_all_pairs_reference():
    for n in range(8):
        assert lagrange.antipode_g_formula(n) == antipode_formula_over_all_pairs(n)


def test_antipode_cubic_display():
    a = lagrange.antipode_g(3)
    assert a.terms == {(3,): -1, (2, 1): 4, (1, 2): 4, (1, 1, 1): -12}


def test_pairing_values_degree_three():
    assert lagrange.v_pairing((2, 1), (3,)) == -3
    assert lagrange.v_pairing((2, 1), (2, 1)) == -1
    assert lagrange.v_pairing((1, 2), (3,)) == -2
    assert lagrange.v_pairing((1, 2), (1, 2)) == -1
    assert lagrange.v_pairing((1, 2), (2, 1)) == 0


def breakpoints(w):
    """Positions p where w splits into a parking prefix over 1..p and a
    parking suffix shifted by p (the cut positions of the profile map used
    by the f-basis matrix)."""
    n = len(w)
    out = []
    for p in range(1, n):
        pre, suf = w[:p], [v - p for v in w[p:]]
        if max(pre) <= p and parking.is_parking(pre) and min(suf) >= 1 and parking.is_parking(suf):
            out.append(p)
    return out


def f_basis_table_via_breakpoints(n):
    """The matrix of F onto S tallied combinatorially: each nondecreasing
    parking function adds one unit at (its type, its breakpoint set)."""
    order = comps.all_compositions(n)
    pos = {tuple(sorted(comps.descent_set(c))): k for k, c in enumerate(order)}
    typerow = {c: k for k, c in enumerate(order)}
    mat = [[0] * len(order) for _ in order]
    for w in parking.enumerate_ndpf(n):
        r = typerow[parking.type_of(w)]
        c = pos[tuple(breakpoints(w))]
        mat[r][c] += 1
    return mat


def test_f_change_of_basis_two_routes():
    for n in range(1, 7):
        assert transition_matrix("F", "S", n) == f_basis_table_via_breakpoints(n)


def test_f_change_of_basis_entries_are_integers():
    assert all(type(c) is int for row in transition_matrix("F", "S", 4) for c in row)


def test_f_change_of_basis_degree_three():
    assert transition_matrix("F", "S", 3) == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_dual_transitions_invert():
    from nclag.algebra import QSymElement, convert

    for n in range(5):
        for i in comps.all_compositions(n):
            x = QSymElement.monomial("C", i)
            assert convert(convert(x, "M"), "C") == x


def test_table_bound_is_enforced():
    bound = lagrange.max_degree()
    with pytest.raises(ValueError):
        lagrange.s_generator_on_g(bound + 1)


def test_table_bound_respects_environment():
    code = (
        "from nclag import lagrange\n"
        "assert lagrange.max_degree() == 4\n"
        "try:\n"
        "    lagrange.s_generator_on_g(5)\n"
        "except ValueError:\n"
        "    print('ok')\n"
    )
    env = dict(os.environ, NCLAG_MAX_DEGREE="4")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "ok"
