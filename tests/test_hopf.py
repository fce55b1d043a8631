import hashlib
import itertools
import json
import math
from collections import Counter

import pytest

from nclag import algebra, compositions as comps, hopf, lagrange, noncrossing as nc, parking


def coproduct_witnesses(n, i_comp, j_comp):
    """The noncrossing partitions realizing one tensor coefficient."""
    return [
        p
        for p in nc.enumerate_nc(n + 1)
        if p.reduced_ordered_type() == tuple(i_comp)
        and nc.kreweras(p).reduced_ordered_type() == tuple(j_comp)
    ]


def tree_weight(t):
    """The branch-edge monomial of a single tree, as a (u, v) subscript
    pair (zero-edge branches are dropped)."""
    pl, pr = nc.tree_phi(t)
    u = tuple(sorted((len(b) - 1 for b in pl.blocks if len(b) > 1), reverse=True))
    v = tuple(sorted((len(b) - 1 for b in pr.blocks if len(b) > 1), reverse=True))
    return u, v


def test_three_coproduct_routes_agree():
    for n in range(6):
        a = hopf.delta_g_algebraic(n)
        assert a == hopf.delta_g_biprofiles(n)
        assert a == hopf.delta_g_noncrossing(n)


def test_three_coproduct_routes_print_the_same_terms_in_the_same_order():
    # legs () and (1,) share the empty descent word; their weights part them
    for n in range(9):
        outs = {
            (repr(t), json.dumps(t.to_json_dict()))
            for t in (
                hopf.delta_g_algebraic(n),
                hopf.delta_g_biprofiles(n),
                hopf.delta_g_noncrossing(n),
            )
        }
        assert len(outs) == 1
    assert repr(hopf.delta_g_noncrossing(1)) == "1(x)G[1] + G[1](x)1"


def test_cubic_coproduct_display():
    t = hopf.delta_g_algebraic(3)
    assert t.coeff((3,), ()) == 1
    assert t.coeff((2,), (1,)) == 4
    assert t.coeff((1, 1), (1,)) == 2
    assert t.coeff((1,), (2,)) == 4
    assert t.coeff((1,), (1, 1)) == 2
    assert t.coeff((), (3,)) == 1
    assert len(t.terms) == 6


def test_degree_five_coefficients():
    t = hopf.delta_g_algebraic(5)
    assert t.coeff((1, 2), (1, 1)) == 7
    assert t.coeff((2, 1), (1, 1)) == 11


def test_witnesses_match_coefficients():
    t = hopf.delta_g_noncrossing(5)
    for i, j in (((1, 2), (1, 1)), ((2, 1), (1, 1)), ((4,), (1,))):
        ws = coproduct_witnesses(5, i, j)
        assert len(ws) == t.coeff(i, j)
        for p in ws:
            assert p.reduced_ordered_type() == i
            assert nc.kreweras(p).reduced_ordered_type() == j


def test_cocommutativity_and_coassociativity():
    for n in range(6):
        a = hopf.delta_g_algebraic(n)
        assert a.permute((1, 0)) == a
        t = algebra.coproduct(lagrange.g_component(n))
        assert t.split_leg(0) == t.split_leg(1)


def test_monomial_coproduct_is_multiplicative():
    t = hopf.delta_g_monomial((2, 1))
    single = hopf.delta_g_algebraic(2) * hopf.delta_g_algebraic(1)
    assert t == single


def test_monomial_coproduct_refuses_a_part_below_one():
    # a zero part is no composition, though the coproduct of g_0 is 1 (x) 1
    for index in ((0,), (-1,), (2, 0, 1)):
        with pytest.raises(ValueError, match="composition"):
            hopf.delta_g_monomial(index)
    assert hopf.delta_g_monomial(()) == algebra.TensorElement.one(("G", "G"))


def test_word_coproduct_splits():
    terms = hopf.unparkized_terms((1, 1, 2, 4))
    assert len(terms) == 12
    assert ((), (1, 1, 2, 4)) in terms
    assert ((1, 1, 2, 4), ()) in terms


def test_word_coproduct_splits_follow_the_multiplicity_vectors():
    # reference: one split per vector (k_1, ..., k_m) of multiplicities taken
    # into u, in lexicographic order; v keeps the rest
    for n in range(7):
        for pi in parking.enumerate_ndpf(n):
            counts = sorted(Counter(pi).items())
            want = [
                (
                    tuple(a for (a, _), k in zip(counts, ks) for _ in range(k)),
                    tuple(a for (a, m), k in zip(counts, ks) for _ in range(m - k)),
                )
                for ks in itertools.product(*(range(m + 1) for _, m in counts))
            ]
            assert hopf.unparkized_terms(pi) == want


def test_coproduct_of_g_is_homogeneous():
    for n in range(7):
        assert hopf.delta_g_algebraic(n).is_homogeneous(n)


def test_word_coproduct_parkizes():
    cp = hopf.coproduct_P((1, 1, 2, 4))
    assert cp[((), (1, 1, 2, 4))] == 1
    assert cp[((1, 1, 2, 4), ())] == 1
    assert cp[((1,), (1, 1, 3))] == 1
    assert cp[((1, 2), (1, 2))] == 2
    assert cp[((1, 2), (1, 1))] == 1
    assert sum(cp.values()) == 12


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def split_tally_by_walk(n):
    """The splits (u, v) of every index word of size n, visited one by one
    and tallied by (profile u, profile v)."""
    return Counter(
        (parking.profile(u), parking.profile(v))
        for pi in parking.enumerate_ndpf(n)
        for u, v in hopf.unparkized_terms(pi)
    )


@pytest.mark.parametrize("n", range(8))
def test_split_biprofile_tally_equals_the_walk_over_every_split(n):
    assert hopf.split_biprofile_tally(n) == dict(split_tally_by_walk(n))


def test_biprofile_regrouping():
    # u ∪ v is an index word exactly when (profile u, profile v) is a
    # parking biprofile (P, Q), which it is in Π Cat(c_i) · Π Cat(d_j) ways
    for n in range(9):
        weighted = {
            (p, q): math.prod(catalan(c) for c in p[1] + q[1])
            for p, q in parking.enumerate_parking_biprofiles(n)
        }
        assert hopf.split_biprofile_tally(n) == weighted


@pytest.mark.parametrize("n", range(11))
def test_split_count_is_the_raney_number(n):
    total = math.comb(3 * n + 1, n) // (n + 1)
    assert sum(hopf.split_biprofile_tally(n).values()) == total


def test_split_biprofile_tally_rejects_a_negative_size():
    with pytest.raises(ValueError, match="nonnegative"):
        hopf.split_biprofile_tally(-1)


def test_multiplicity_free_term_counts():
    for n in range(7):
        cat = math.comb(2 * (n + 1), n + 1) // (n + 2)
        assert len(parking.enumerate_parking_biprofiles(n)) == cat


def test_commutative_image_two_routes():
    for n in range(6):
        t = hopf.delta_g_noncrossing(n)
        assert hopf.delta_g_commutative(t) == hopf.delta_g_commutative(hopf.delta_g_trees(n))


def test_tree_weight_of_worked_example():
    t = nc.rebuild_tree((3, 1, 2, 3, 2, 1), (1, 3, 1, 2, 2, 1, 2))
    assert tree_weight(t) == ((2, 2, 1, 1), (2, 1, 1, 1))


def test_tree_weights_tally_to_series():
    for n in range(1, 6):
        tally = {}
        for t in nc.enumerate_trees(n + 1):
            key = tree_weight(t)
            tally[key] = tally.get(key, 0) + 1
        assert tally == hopf.delta_g_commutative(hopf.delta_g_trees(n))


def test_every_route_rejects_a_negative_degree():
    routes = (
        hopf.delta_g_algebraic,
        hopf.delta_g_biprofiles,
        hopf.delta_g_noncrossing,
        hopf.delta_g_trees,
    )
    for route in routes:
        with pytest.raises(ValueError, match="nonnegative"):
            route(-1)


def test_tree_route_equals_the_algebraic_route():
    for n in range(11):
        assert hopf.delta_g_trees(n) == hopf.delta_g_algebraic(n), n


def test_tree_route_at_degree_14_matches_the_pinned_algebraic_terms(monkeypatch):
    # sha1 of the sorted terms of delta_g_algebraic(14), which takes several
    # times as long as the tree route
    monkeypatch.setenv("NCLAG_MAX_DEGREE", "14")
    t = hopf.delta_g_trees(14)
    assert len(t.terms) == 25032
    digest = hashlib.sha1(repr(sorted(t.terms.items())).encode()).hexdigest()
    assert digest == "34291da7cae7fd7053c7e71b1f5e87ee5737753d"


def test_tree_route_is_bounded(monkeypatch):
    monkeypatch.delenv("NCLAG_MAX_DEGREE", raising=False)
    with pytest.raises(ValueError, match="NCLAG_MAX_DEGREE"):
        hopf.delta_g_trees(11)


def test_two_leg_format_is_pinned():
    t = hopf.delta_g_algebraic(3)
    assert repr(t) == (
        "4*G[1](x)G[2] + 1(x)G[3] + 2*G[1](x)G[1,1] + 4*G[2](x)G[1] + G[3](x)1"
        " + 2*G[1,1](x)G[1]"
    )
    assert json.dumps(t.to_json_dict()) == (
        '{"side": "tensor", "basis": ["G", "G"], "terms": ['
        '{"index": [[1], [2]], "coeff": "4"}, {"index": [[], [3]], "coeff": "1"}, '
        '{"index": [[1], [1, 1]], "coeff": "2"}, {"index": [[2], [1]], "coeff": "4"}, '
        '{"index": [[3], []], "coeff": "1"}, {"index": [[1, 1], [1]], "coeff": "2"}]}'
    )


def test_coassociativity_compares_three_leg_tensors():
    t = algebra.coproduct(lagrange.g_component(3))
    left, right = t.split_leg(0), t.split_leg(1)
    assert left.basis == right.basis == ("S", "S", "S")
    assert left == right
    # Delta twice on S_3: one S_a (x) S_b (x) S_c for each a + b + c = 3
    s3 = algebra.TensorElement.monomial(("S",), (3,)).split_leg(0)
    want = {
        tuple((p,) if p else () for p in abc): 1
        for abc in itertools.product(range(4), repeat=3)
        if sum(abc) == 3
    }
    assert s3.split_leg(0).terms == s3.split_leg(1).terms == want
