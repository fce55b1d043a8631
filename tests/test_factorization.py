import itertools
import math
from collections import Counter

import pytest

from nclag import algebra, compositions as comps, factorization as fz, hopf, noncrossing, verify


def test_canonical_permutation_cycles():
    w = fz.canonical_permutation((2, 1))
    assert w == [2, 3, 1, 5, 4]
    assert fz.ordered_cycle_type(w) == (3, 2)
    assert fz.reduced_ordered_cycle_type(w) == (2, 1)


def test_reduced_type_drops_fixed_points():
    assert fz.reduced_ordered_cycle_type([1, 3, 2, 4]) == (1,)


def test_compose_and_inverse_conventions():
    a = [2, 3, 1]
    b = [2, 1, 3]
    # (a*b)(1) = a(b(1)) = a(2) = 3
    assert fz.compose(a, b) == [3, 2, 1]
    assert fz.compose(a, fz.inverse(a)) == [1, 2, 3]


def test_transposition_length_is_additive_on_minimal_pairs():
    sigma = fz.canonical_permutation((3,))
    for alpha, beta in fz.minimal_factorizations(sigma, (2,), (1,)):
        assert fz.compose(alpha, beta) == sigma
        assert (
            fz.transposition_length(alpha) + fz.transposition_length(beta)
            == fz.transposition_length(sigma)
        )


def test_permutations_of_reduced_type_counts():
    # 3 transpositions in S_3, 8 three-cycles plus... in S_4 of type (2,)
    assert len(list(fz.permutations_of_reduced_type(3, (1,)))) == 3
    assert len(list(fz.permutations_of_reduced_type(4, (2,)))) == 8
    assert len(list(fz.permutations_of_reduced_type(4, (1, 1)))) == 3


def test_worked_counts():
    assert fz.count_minimal_factorizations((2,), (1,), (1,)) == 3
    assert fz.count_minimal_factorizations((5,), (1, 2), (1, 1)) == 7
    assert fz.count_minimal_factorizations((5,), (2, 1), (1, 1)) == 11


def _small_indices():
    """Every composition I with |I| + l(I) <= 7."""
    for n in range(1, 6):
        for i in comps.all_compositions(n):
            if n + len(i) <= 7:
                yield i


def test_counts_match_coproduct_coefficients():
    for i in _small_indices():
        assert fz.factorization_tally(i) == hopf.delta_g_monomial(i), i


def _full_product_tally(i):
    """Reference: one walk over every alpha that rearranges each run of
    sigma, both factors' cycles walked on their full one-line forms."""
    sigma = fz.canonical_permutation(i)
    runs = noncrossing.cycles_of(sigma)
    m = len(sigma)
    lt_sigma = m - len(runs)
    inv = [0] * m
    tally = Counter()
    for images in itertools.product(*map(itertools.permutations, runs)):
        alpha = list(itertools.chain.from_iterable(images))
        for x, a in enumerate(alpha, 1):
            inv[a - 1] = x
        alpha_cycles = noncrossing.cycles_of(alpha)
        beta_cycles = noncrossing.cycles_of([inv[s - 1] for s in sigma])
        if 2 * m - len(alpha_cycles) - len(beta_cycles) == lt_sigma:
            tally[
                comps.reduce_parts(map(len, alpha_cycles)),
                comps.reduce_parts(map(len, beta_cycles)),
            ] += 1
    return tally


def test_tally_equals_the_full_product_walk():
    checked = 0
    for n in range(1, 9):
        for i in comps.all_compositions(n):
            if n + len(i) <= 9:
                assert fz.factorization_tally(i).terms == _full_product_tally(i), i
                checked += 1
    assert checked == 54


@pytest.mark.parametrize("length", range(1, 9))
def test_run_table_equals_a_two_walk_count(length):
    # sigma on one run, relabelled: x -> x+1 mod L
    sigma = [*range(2, length + 1), 1]
    reference = Counter()
    for alpha in itertools.permutations(range(1, length + 1)):
        beta = fz.compose(fz.inverse(alpha), sigma)
        if fz.transposition_length(alpha) + fz.transposition_length(beta) == length - 1:
            key = fz.reduced_ordered_cycle_type(alpha), fz.reduced_ordered_cycle_type(beta)
            reference[key] += 1
    assert fz._run_table(length) == algebra.TensorElement(("G", "G"), reference)
    # the minimal two-factor factorizations of an L-cycle: Catalan(L)
    assert sum(reference.values()) == math.comb(2 * length, length) // (length + 1)


def test_run_table_equals_the_tree_route():
    # both sides of the factorization family against a coproduct route that
    # reads neither _run_table nor delta_g_algebraic
    for p in range(8):
        assert fz._run_table(p + 1) == hopf.delta_g_trees(p), p


def test_one_walk_tally_equals_the_per_left_type_tally():
    # reference: one restricted candidate search per left type J
    for i in _small_indices():
        sigma = fz.canonical_permutation(i)
        reference = Counter()
        for a in range(comps.weight(i) + 1):
            for j in comps.all_compositions(a):
                for _, beta in fz._minimal_pairs(sigma, j):
                    reference[j, fz.reduced_ordered_cycle_type(beta)] += 1
        assert fz.factorization_tally(i).terms == reference, i


@pytest.mark.parametrize("mutant", ["changed", "extra", "missing"])
def test_a_corrupted_coproduct_fails_the_match(monkeypatch, mutant):
    i = (2, 1)
    true = hopf.delta_g_monomial
    terms = dict(true(i).terms)
    keys = sorted(terms)
    assert ((1, 1, 1), ()) not in terms
    if mutant == "changed":
        terms[keys[1]] += 1
    elif mutant == "extra":
        terms[(1, 1, 1), ()] = 1
    else:
        del terms[keys[-1]]
    monkeypatch.setattr(
        hopf,
        "delta_g_monomial",
        lambda index: algebra.TensorElement(("G", "G"), terms) if index == i else true(index),
    )
    passed = {label: ok for label, ok, _ in verify.SUITES["factorization"](3)}
    assert not passed["factorization counts match coproduct, I=21"]
    assert passed["factorization counts match coproduct, I=12"]


def test_restricted_enumeration_loses_no_factorization():
    # reference: every permutation of S_m of reduced type J, unrestricted
    for n in range(1, 6):
        for i in comps.all_compositions(n):
            if n + len(i) > 7:
                continue
            sigma = fz.canonical_permutation(i)
            lt = fz.transposition_length(sigma)
            for a in range(n + 1):
                for j in comps.all_compositions(a):
                    reference = {}
                    for alpha in fz.permutations_of_reduced_type(len(sigma), j):
                        beta = fz.compose(fz.inverse(alpha), sigma)
                        if a + fz.transposition_length(beta) == lt:
                            k = fz.reduced_ordered_cycle_type(beta)
                            reference.setdefault(k, []).append((alpha, beta))
                    for k in comps.all_compositions(n - a):
                        got = fz.minimal_factorizations(sigma, j, k)
                        assert got == reference.get(k, []), (i, j, k)


def test_within_keeps_supports_inside_cycles():
    sigma = fz.canonical_permutation((1, 1))  # (1 2)(3 4)
    within = list(fz.permutations_of_reduced_type(4, (1,), within=sigma))
    assert within == [[2, 1, 3, 4], [1, 2, 4, 3]]


def _padded(sigma, m):
    """sigma with fixed points appended up to m letters."""
    return list(sigma) + list(range(len(sigma) + 1, m + 1))


def test_representative_independence():
    # the partition-level tally depends on the cycle type only
    for i, other in (((2,), [3, 1, 2]), ((2, 1), [4, 1, 5, 2, 3])):
        sigma = fz.canonical_permutation(i)
        other = _padded(other, len(sigma))
        assert sorted(fz.ordered_cycle_type(other)) == sorted(fz.ordered_cycle_type(sigma))
        assert fz.partition_tally(other) == fz.partition_tally(sigma)


def test_wrong_cycle_type_rejected():
    # a permutation of another cycle type is no representative: its tally differs
    sigma = fz.canonical_permutation((2,))
    other = _padded([2, 1, 3], len(sigma))
    assert sorted(fz.ordered_cycle_type(other)) != sorted(fz.ordered_cycle_type(sigma))
    assert fz.partition_tally(other) != fz.partition_tally(sigma)


def test_oversized_ambient_group_rejected():
    with pytest.raises(ValueError):
        fz.count_minimal_factorizations((9, 1), (1,), (9,))
