"""Acceptance gate: ten end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Everything is exact integer arithmetic; no tolerances.
"""

import itertools
import math
from fractions import Fraction

from nclag import (
    compositions as comps,
    factorization as fz,
    hopf,
    incidence as inc,
    lagrange,
    noncrossing as nc,
    parking,
)

from test_lagrange import transition_matrix
from test_noncrossing import permutation_to_nc, words_by_upsteps


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_01_cubic_component_and_transition_matrices():
    g3 = lagrange.g_component(3)
    assert g3.terms == {(3,): 1, (2, 1): 2, (1, 2): 1, (1, 1, 1): 1}
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


def test_02_doubled_series_three_routes():
    want = [
        {(): 1},
        {(1,): 1},
        {(2,): 1, (1, 1): 2},
        {(3,): 1, (2, 1): 4, (1, 2): 2, (1, 1, 1): 5},
    ]
    for n in range(4):
        assert lagrange.gk_component(2, n).terms == want[n]
    for n in range(7):
        a = lagrange.gk_component(2, n)
        assert a == lagrange.gk_component_iterative(2, n)
        assert a == lagrange.gk_component_via_phi(2, n)


def test_03_negated_alphabet_table_and_routes():
    want = [
        {(1,): -1},
        {(2,): -1, (1, 1): 3},
        {(3,): -1, (2, 1): 5, (1, 2): 3, (1, 1, 1): -12},
        {
            (4,): -1,
            (3, 1): 7,
            (2, 2): 5,
            (1, 3): 3,
            (2, 1, 1): -25,
            (1, 2, 1): -18,
            (1, 1, 2): -12,
            (1, 1, 1, 1): 55,
        },
    ]
    for n in range(1, 5):
        assert lagrange.g_neg(n).terms == want[n - 1]
    sums = [
        sum(abs(c) for c in lagrange.g_neg(n).terms.values()) for n in range(1, 5)
    ]
    assert sums == [1, 4, 21, 126]
    for n in range(7):
        a = lagrange.g_neg(n)
        assert a == lagrange.g_neg_via_pairing(n)
        assert a == lagrange.g_neg_via_counting(n)
        assert a == lagrange.g_neg_via_doubling(n)


def test_04_antipode_three_routes_and_contribution_splits():
    want = {(3,): -1, (2, 1): 4, (1, 2): 4, (1, 1, 1): -12}
    assert lagrange.antipode_g(3).terms == want
    assert lagrange.antipode_g_four_step(3).terms == want
    assert lagrange.antipode_g_formula(3).terms == want
    ndpf = parking.ndpf_count_of_type
    # the two contributions to the (2,1) coefficient are -3*1 and -1*1
    parts_21 = [
        lagrange.v_pairing((2, 1), (3,)) * ndpf(comps.mirror((3,))),
        lagrange.v_pairing((2, 1), (2, 1)) * ndpf(comps.mirror((2, 1))),
    ]
    assert parts_21 == [-3, -1]
    assert (-1) ** 3 * sum(parts_21) == 4
    # the two contributions to the (1,2) coefficient are -2*1 and -1*2
    parts_12 = [
        lagrange.v_pairing((1, 2), (3,)) * ndpf(comps.mirror((3,))),
        lagrange.v_pairing((1, 2), (1, 2)) * ndpf(comps.mirror((1, 2))),
    ]
    assert parts_12 == [-2, -2]
    assert lagrange.v_pairing((1, 2), (3,)) == -2
    assert lagrange.v_pairing((1, 2), (1, 2)) == -1
    assert ndpf((2, 1)) == 2
    assert (-1) ** 3 * sum(parts_12) == 4


def test_05_coproduct_three_routes_and_coefficients():
    for n in range(7):
        a = hopf.delta_g_algebraic(n)
        assert a == hopf.delta_g_biprofiles(n)
        assert a == hopf.delta_g_noncrossing(n)
    t3 = hopf.delta_g_algebraic(3)
    assert t3.coeff((3,), ()) == 1
    assert t3.coeff((2,), (1,)) == 4
    assert t3.coeff((1, 1), (1,)) == 2
    assert t3.coeff((1,), (2,)) == 4
    assert t3.coeff((1,), (1, 1)) == 2
    assert t3.coeff((), (3,)) == 1
    assert len(t3.terms) == 6
    t5 = hopf.delta_g_algebraic(5)
    assert t5.coeff((1, 2), (1, 1)) == 7
    assert t5.coeff((2, 1), (1, 1)) == 11
    for n in range(9):
        assert len(parking.enumerate_parking_biprofiles(n)) == catalan(n + 1)


def test_06_tree_encoding_injective_and_rebuild_round_trips():
    for n in range(1, 9):
        images = set()
        for t in nc.enumerate_trees(n):
            ij = nc.tau(t)
            assert ij not in images
            images.add(ij)
            assert nc.rebuild_tree(*ij) == t
    trace = []
    t = nc.rebuild_tree((3, 1, 2, 3, 2, 1), (1, 3, 1, 2, 2, 1, 2), trace=trace)
    assert t.size() == 12
    assert len(trace) == 13
    assert nc.tau(t) == ((3, 1, 2, 3, 2, 1), (1, 3, 1, 2, 2, 1, 2))
    for n in range(1, 8):
        for t in nc.enumerate_trees(n):
            for i in range(1, n + 1):
                want = i + 1 if i < n else 1
                assert nc.infix_successor(t, i) == want


def test_07_factorization_counts_match_coproduct():
    for n in range(1, 8):
        for i in comps.all_compositions(n):
            if n + len(i) <= 8:
                assert fz.factorization_tally(i) == hopf.delta_g_monomial(i), i
    seven = fz.count_minimal_factorizations((5,), (1, 2), (1, 1))
    eleven = fz.count_minimal_factorizations((5,), (2, 1), (1, 1))
    assert (seven, eleven) == (7, 11)
    assert seven + eleven == 18


def test_08_complement_worked_example_and_tree_partitions():
    p = permutation_to_nc([5, 3, 4, 2, 7, 6, 1, 9, 8])
    k = nc.kreweras(p)
    assert k.blocks == ((1, 4), (2,), (3,), (5, 6), (7, 9), (8,))
    t = nc.rebuild_tree((3, 1, 2, 3, 2, 1), (1, 3, 1, 2, 2, 1, 2))
    pl, pr = nc.tree_phi(t)
    assert pl.blocks == ((1, 2, 6), (3,), (4, 5), (7, 10, 12), (8, 9), (11,))
    assert pr.blocks == (
        (1,),
        (2, 3, 5),
        (4,),
        (6, 12),
        (7, 9),
        (8,),
        (10, 11),
    )
    for n in range(1, 9):
        for t in nc.enumerate_trees(n):
            a, b = nc.tree_phi(t)
            assert nc.kreweras(a) == b


def test_09_compatible_pairs_motzkin_and_touchard():
    want = {
        ((4,), (1, 1, 1, 1)),
        ((3, 1), (2, 1, 1)),
        ((3, 1), (1, 2, 1)),
        ((3, 1), (1, 1, 2)),
        ((2, 2), (2, 1, 1)),
        ((2, 2), (1, 2, 1)),
        ((2, 1, 1), (3, 1)),
        ((2, 1, 1), (2, 2)),
        ((2, 1, 1), (1, 3)),
        ((1, 3), (2, 1, 1)),
        ((1, 2, 1), (3, 1)),
        ((1, 2, 1), (2, 2)),
        ((1, 1, 2), (3, 1)),
        ((1, 1, 1, 1), (4,)),
    }
    assert set(parking.enumerate_compatible_pairs(4)) == want
    js = parking.compatible_with((3, 2, 1))
    assert len(js) == 9
    assert js[0] == (1, 1, 2, 2)
    for n in range(1, 11):
        tally = words_by_upsteps(n)
        for k in range(n // 2 + 1):
            assert tally[k] == math.comb(n, 2 * k) * catalan(k)
        for w in nc.enumerate_s_words(n):
            w2 = nc.s_to_sprime(w)
            assert nc.sprime_to_s(w2) == w
            assert nc.path_to_word(nc.word_to_path(w2)) == w2
    assert [words_by_upsteps(5)[k] for k in range(3)] == [1, 10, 10]
    for n in range(1, 13):
        total = sum(
            2 ** (n - 2 * k) * math.comb(n, 2 * k) * catalan(k)
            for k in range(n // 2 + 1)
        )
        assert total == catalan(n + 1)


def test_10_incidence_layer():
    vals = inc.g_values(inc.mobius(6))
    for n in range(7):
        assert vals[n] == Fraction((-1) ** n * catalan(n))
    for n in range(1, 7):
        lat = inc.lattice_oracle(n + 1)
        assert lat.mobius(lat.bottom, lat.top) == vals[n]
    # ternary trees arise from the three-fold convolution power of zeta
    ternary = inc.g_values(inc.zeta_power(3, 3))
    assert ternary == [1, 3, 12, 55]
    for m in range(2, 7):
        lat = inc.lattice_oracle(m)
        for r in range(1, m):
            for s in itertools.product(range(1, m), repeat=r):
                if sum(s) == m - 1:
                    assert lat.count_chains(s) == inc.chain_count(m, s)
    from test_incidence import _brute_cycle_factorizations

    assert inc.biane_count(3, (2, 2)) == 3
    assert inc.biane_count(4, (2, 2, 2)) == 16
    for n, orders in [
        (3, (2, 2)),
        (4, (2, 2, 2)),
        (4, (3, 2)),
        (5, (3, 3)),
        (5, (2, 2, 2)),
        (6, (3, 2, 2)),
        (6, (2, 2, 2, 2)),
        (7, (4, 2, 2)),
        (7, (3, 3, 2)),
        (7, (2, 2, 2, 2, 2)),
    ]:
        assert inc.biane_count(n, orders) == _brute_cycle_factorizations(
            n, orders
        )
