import itertools
import math
from fractions import Fraction

import pytest

from nclag import factorization as fz, incidence as inc, lagrange, noncrossing as nc
from nclag.algebra import NSymElement


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_zeta_values_are_all_ones():
    assert inc.g_values(inc.zeta(8)) == [Fraction(1)] * 9


def test_mobius_values_are_signed_catalan():
    vals = inc.g_values(inc.mobius(8))
    assert vals == [Fraction((-1) ** n * catalan(n)) for n in range(9)]


def g_values_on_fractions(phi):
    """The scalar equation solved with every hat value a Fraction."""
    alpha = [
        NSymElement.monomial("S", (1,) * d, Fraction(x)) for d, x in enumerate(phi.hat)
    ]
    series = lagrange.solve_functional_equation(alpha.__getitem__, lambda n: n, phi.max_degree)
    return [Fraction(x.coeff((1,) * d)) for d, x in enumerate(series.components)]


@pytest.mark.parametrize("base", [inc.zeta, inc.mobius, inc.identity_character])
def test_integral_hat_values_are_ints_and_solve_as_fractions_do(base):
    for k in range(5):
        for N in range(9):
            phi = inc.power(base(N), k)
            assert all(type(x) is int for x in phi.hat)
            vals = inc.g_values(phi)
            assert all(type(v) is Fraction for v in vals)
            assert vals == g_values_on_fractions(phi), (k, N)


def test_a_hat_value_that_is_not_an_integer_stays_a_fraction():
    phi = inc.MultiplicativeFunction([1, Fraction(1, 2), Fraction(4, 2)])
    assert phi.hat == [1, Fraction(1, 2), 2]
    assert [type(x) for x in phi.hat] == [int, Fraction, int]
    assert inc.g_values(phi) == g_values_on_fractions(phi)


def test_mobius_inverts_zeta():
    assert inc.convolve(inc.zeta(8), inc.mobius(8)) == inc.identity_character(8)
    assert inc.convolve(inc.mobius(8), inc.zeta(8)) == inc.identity_character(8)


def test_hat_series_round_trip():
    phi = inc.zeta_power(3, 6)
    assert inc.from_g_values(inc.g_values(phi)) == phi


def test_zeta_powers_match_closed_form():
    for k in range(1, 5):
        vals = inc.g_values(inc.zeta_power(k, 7))
        for n in range(8):
            assert vals[n] == inc.zeta_power_value(k, n)


@pytest.mark.parametrize("base", [inc.zeta, inc.mobius, inc.identity_character])
def test_convolution_powers(base):
    phi = base(6)
    assert inc.power(phi, 0) == inc.identity_character(6)
    assert inc.power(phi, 1) == phi
    assert inc.power(phi, 3) == inc.convolve(phi, inc.convolve(phi, phi))
    with pytest.raises(ValueError, match="nonnegative"):
        inc.power(phi, -1)


@pytest.mark.parametrize("base", [inc.zeta, inc.mobius, inc.identity_character])
def test_power_by_squaring_equals_the_k_fold_product(base):
    phi = base(6)
    loop = inc.identity_character(6)
    for k in range(13):
        assert inc.power(phi, k) == loop
        loop = inc.convolve(loop, phi)


def test_a_large_power_is_exact():
    # the hat series of zeta is 1 + t, so its k-th power is binomial; k
    # convolutions one at a time would take about a minute
    k = 10**6
    assert inc.power(inc.zeta(6), k).hat == [math.comb(k, n) for n in range(7)]


def test_zeta_power_is_the_power_of_zeta():
    for k in range(5):
        assert inc.zeta_power(k, 6) == inc.power(inc.zeta(6), k)
    assert inc.g_values(inc.zeta_power(0, 4)) == [1, 0, 0, 0, 0]


def test_ternary_tree_values():
    assert [inc.zeta_power_value(3, n) for n in range(4)] == [1, 3, 12, 55]


def test_multichain_counts_match_oracle():
    assert inc.multichain_count(1, 2) == 3
    for n in range(1, 5):
        lat = inc.lattice_oracle(n + 1)
        for k in (1, 2, 3):
            assert lat.count_multichains(k) == inc.multichain_count(n, k)


def test_single_chains_are_catalan():
    for n in range(1, 6):
        assert inc.multichain_count(n, 1) == catalan(n + 1)


def test_chain_count_worked_value():
    assert inc.chain_count(4, (1, 1, 1)) == 16


def test_chain_counts_match_oracle():
    for m in range(2, 7):
        lat = inc.lattice_oracle(m)
        for r in range(1, m):
            for s in itertools.product(range(1, m), repeat=r):
                if sum(s) == m - 1:
                    assert lat.count_chains(s) == inc.chain_count(m, s)


def test_lattice_mobius_numbers():
    lat = inc.lattice_oracle(4)
    assert lat.mobius(lat.bottom, lat.top) == -5
    for n in range(2, 7):
        lat = inc.lattice_oracle(n)
        want = (-1) ** (n - 1) * catalan(n - 1)
        assert lat.mobius(lat.bottom, lat.top) == want


def test_lower_interval_sizes_factor_over_blocks():
    lat = inc.lattice_oracle(6)
    for p in lat.elements:
        want = 1
        for b in p.blocks:
            want *= catalan(len(b))
        assert len(lat.interval(lat.bottom, p)) == want


def test_upper_interval_matches_complement():
    lat = inc.lattice_oracle(6)
    for p in lat.elements:
        k = nc.kreweras(p)
        assert len(lat.interval(p, lat.top)) == len(lat.interval(lat.bottom, k))


def _brute_cycle_factorizations(n, orders):
    """Count minimal factorizations of the long cycle into cycles of the
    given orders, left to right."""
    sigma = list(range(2, n + 1)) + [1]
    total = 0

    def rec(cur, remaining):
        nonlocal total
        if not remaining:
            if cur == sigma:
                total += 1
            return
        need = sum(a - 1 for a in remaining)
        if fz.transposition_length(cur) + need != n - 1:
            return
        a = remaining[0]
        for alpha in fz.permutations_of_reduced_type(n, (a - 1,)):
            nxt = fz.compose(alpha, cur)
            if (
                fz.transposition_length(nxt)
                == fz.transposition_length(cur) + a - 1
            ):
                rec(nxt, remaining[1:])

    rec(list(range(1, n + 1)), list(orders))
    return total


def test_cycle_factorization_counts():
    assert inc.biane_count(3, (2, 2)) == 3
    assert inc.biane_count(4, (2, 2, 2)) == 16
    assert inc.biane_count(4, (3, 2)) == 4
    assert inc.biane_count(5, (2, 2, 2)) == 0


def test_cycle_factorization_count_of_no_cycles_is_the_int_one():
    count = inc.biane_count(1, ())
    assert count == 1
    assert type(count) is int
    assert inc.biane_count(2, ()) == 0


@pytest.mark.parametrize("n", [0, -3])
def test_cycle_factorization_count_refuses_n_below_one(n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        inc.biane_count(n, (2,))


def test_cycle_factorization_counts_match_brute_force():
    cases = [
        (3, (2, 2)),
        (4, (2, 2, 2)),
        (4, (3, 2)),
        (5, (3, 3)),
        (5, (4, 2)),
        (5, (2, 2, 2)),
        (6, (3, 2, 2)),
        (7, (4, 2, 2)),
        (7, (3, 3, 2)),
    ]
    for n, orders in cases:
        assert inc.biane_count(n, orders) == _brute_cycle_factorizations(
            n, orders
        )


def test_chain_count_validates_jumps():
    with pytest.raises(ValueError):
        inc.chain_count(4, (1, 1))
    with pytest.raises(ValueError):
        inc.chain_count(4, (0, 3))


def _refines(p, q):
    return all(any(set(b) <= set(c) for c in q.blocks) for b in p.blocks)


def test_lattice_order_is_block_containment():
    for n in range(1, 6):
        lat = inc.lattice_oracle(n)
        for p in lat.elements:
            for q in lat.elements:
                assert lat.leq(p, q) == _refines(p, q), (p, q)


def test_lattice_mobius_inverts_zeta():
    lat = inc.lattice_oracle(5)
    for p in lat.elements:
        for q in lat.elements:
            if _refines(p, q):
                total = sum(
                    lat.mobius(p, r)
                    for r in lat.elements
                    if _refines(p, r) and _refines(r, q)
                )
                assert total == (1 if p == q else 0), (p, q)


def test_lattice_multichains_need_positive_length():
    with pytest.raises(ValueError):
        inc.lattice_oracle(3).count_multichains(0)


def test_multichain_count_rejects_non_integer(monkeypatch):
    # a count memoized by an earlier call would be returned without a solve
    inc.multichain_count.cache_clear()
    monkeypatch.setattr(inc, "g_values", lambda phi: [Fraction(1, 2)] * 4)
    with pytest.raises(ArithmeticError):
        inc.multichain_count(3, 2)


def test_chain_count_rejects_non_integer(monkeypatch):
    monkeypatch.setattr(inc, "comb", lambda n, k: 1)
    with pytest.raises(ArithmeticError):
        inc.chain_count(4, (1, 2))


def test_lattice_cap(monkeypatch):
    # the cap is the degree bound, NCLAG_MAX_DEGREE
    monkeypatch.delenv("NCLAG_MAX_DEGREE", raising=False)
    with pytest.raises(ValueError, match="degree 11 exceeds the table bound 10"):
        inc.NCLattice(11)
    monkeypatch.setenv("NCLAG_MAX_DEGREE", "4")
    with pytest.raises(ValueError, match="degree 5 exceeds the table bound 4"):
        inc.NCLattice(5)
    assert len(inc.NCLattice(4).elements) == catalan(4)
    with pytest.raises(ValueError):
        inc.NCLattice(0)


@pytest.mark.parametrize("fn", [inc.zeta, inc.mobius, inc.identity_character])
def test_characters_reject_negative_degree(fn):
    with pytest.raises(ValueError, match="nonnegative"):
        fn(-1)


@pytest.mark.parametrize("fn", [inc.zeta, inc.mobius, inc.identity_character])
def test_characters_at_degree_zero_are_the_constant_one(fn):
    assert fn(0).hat == [1]
