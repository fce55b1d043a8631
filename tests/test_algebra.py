from itertools import product
from math import prod

import pytest

from nclag import algebra, compositions as comps, lagrange
from nclag.algebra import (
    BasisMismatch,
    NSymElement,
    QSymElement,
    TensorElement,
    antipode,
    convert,
    coproduct,
    element_from_json_dict,
    neg_alphabet,
    pair,
    phi_k,
    psi_k,
    tilde,
)


def s_mono(index, c=1):
    return NSymElement.monomial("S", tuple(index), c)


def test_concatenative_product_on_s():
    x = s_mono((2,)) * s_mono((1, 1))
    assert x == s_mono((2, 1, 1))


def test_ribbon_product_rule():
    # R_a * R_b = R_{a.b} + R_{a glued b}
    x = NSymElement.monomial("R", (2,)) * NSymElement.monomial("R", (1, 1))
    assert x.coeff((2, 1, 1)) == 1
    assert x.coeff((3, 1)) == 1
    assert len(x.terms) == 2


def ribbon_rule(i, j):
    """R_I R_J = R_(I.J) + R_(I|>J), the last part of I fused with the first
    of J; R_() is the unit."""
    if not i or not j:
        return NSymElement.monomial("R", i + j)
    fused = i[:-1] + (i[-1] + j[0],) + j[1:]
    return NSymElement("R", {i + j: 1, fused: 1})


def test_ribbon_products_through_s_equal_the_ribbon_rule():
    ribbons = [i for n in range(5) for i in comps.all_compositions(n)]
    pairs = list(product(ribbons, repeat=2))
    assert len(pairs) == 256
    for i, j in pairs:
        got = NSymElement.monomial("R", i) * NSymElement.monomial("R", j)
        assert got == ribbon_rule(i, j), (i, j)


def test_concatenating_products_convert_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("converted")

    monkeypatch.setattr(algebra, "convert", refuse)
    for basis in ("S", "L", "G"):
        x = NSymElement(basis, {(2,): 3, (1, 1): -1})
        assert (x * x).terms == {(2, 2): 9, (2, 1, 1): -3, (1, 1, 2): -3, (1, 1, 1, 1): 1}
    t = TensorElement.monomial(("G", "S", "L"), (1,), (), (2,), coeff=2)
    assert t * t == TensorElement.monomial(("G", "S", "L"), (1, 1), (), (2, 2), coeff=4)


def test_mixed_basis_product_rejected():
    with pytest.raises(BasisMismatch):
        NSymElement.monomial("S", (1,)) * NSymElement.monomial("R", (1,))
    with pytest.raises(BasisMismatch):
        TensorElement.one(("S", "R")) * TensorElement.one(("S", "F"))


def test_nsym_round_trips():
    for n in range(5):
        for basis in ("L", "R", "G", "F"):
            for i in comps.all_compositions(n):
                x = NSymElement.monomial(basis, i)
                assert convert(convert(x, "S"), basis) == x


def signed_generator(n):
    """S_n on the L basis, and L_n on the S basis: every composition J of n
    with the sign (-1)^(n - l(J))."""
    return {j: (-1) ** (n - len(j)) for j in comps.all_compositions(n)}


@pytest.mark.parametrize("source, target", [("S", "L"), ("L", "S")])
def test_l_s_edges_equal_the_product_of_signed_generators(source, target):
    for n in range(8):
        for i in comps.all_compositions(n):
            want = algebra._products_into({}, {i: 1}, signed_generator)
            got = convert(NSymElement.monomial(source, i), target)
            assert got == NSymElement(target, want)
            assert all(type(c) is int for c in got.terms.values())


def test_f_conversions_keep_integer_coefficients():
    # the F -> G signs run over refinements, which only lengthen the index
    for n in range(1, 6):
        for i in comps.all_compositions(n):
            for basis in ("S", "L", "R", "G", "F"):
                y = convert(NSymElement.monomial("F", i), basis)
                assert all(type(c) is int for c in y.terms.values()), (i, basis)


def test_qsym_round_trips():
    for n in range(5):
        for basis in ("E", "V", "C"):
            for i in comps.all_compositions(n):
                x = QSymElement.monomial(basis, i)
                assert convert(convert(x, "M"), basis) == x


def test_pairing_is_dual_on_defining_bases():
    for i in comps.all_compositions(4):
        for j in comps.all_compositions(4):
            want = 1 if i == j else 0
            assert pair(QSymElement.monomial("M", i), s_mono(j)) == want
            assert (
                pair(
                    QSymElement.monomial("C", i),
                    convert(NSymElement.monomial("G", j), "S"),
                )
                == want
            )


def test_essential_basis_is_coarsening_sum():
    e = convert(QSymElement.monomial("E", (1, 2)), "M")
    assert e.coeff((1, 2)) == 1
    assert e.coeff((3,)) == 1
    assert len(e.terms) == 2


def test_coproduct_splits_generators():
    t = coproduct(s_mono((2,)))
    assert t.coeff((2,), ()) == 1
    assert t.coeff((1,), (1,)) == 1
    assert t.coeff((), (2,)) == 1


def test_coproduct_is_an_algebra_map():
    x = s_mono((2, 1))
    y = s_mono((1, 1))
    assert coproduct(x * y) == coproduct(x) * coproduct(y)


def test_antipode_convolution_gives_counit():
    for n in range(5):
        for i in comps.all_compositions(n):
            t = coproduct(s_mono(i))
            acc = NSymElement.zero("S")
            for (a, b), c in t.terms.items():
                acc = acc + (convert(antipode(s_mono(a)), "S") * s_mono(b)).scale(c)
            want = NSymElement.one("S") if n == 0 else NSymElement.zero("S")
            assert acc == want


def test_neg_alphabet_is_an_involution():
    for i in comps.all_compositions(4):
        x = s_mono(i)
        assert neg_alphabet(neg_alphabet(x)) == x


def test_tilde_is_an_involution_on_g():
    g = NSymElement.monomial("G", (2, 1)) - NSymElement.monomial("G", (3,), 2)
    assert tilde(tilde(g)) == g


def test_phi_psi_are_adjoint():
    k = 2
    for i in comps.all_compositions(4):
        for j in comps.all_compositions(8):
            lhs = pair(psi_k(QSymElement.monomial("M", i), k), s_mono(j))
            rhs = pair(QSymElement.monomial("M", i), phi_k(s_mono(j), k))
            assert lhs == rhs


def test_series_symmetry_only_under_descent_complement():
    g3 = lagrange.g_component(3)
    assert g3 == g3.map_indices(comps.conjugate)
    assert g3 != g3.map_indices(comps.mirror)
    assert g3 != g3.map_indices(comps.mirror_conjugate)


def test_json_round_trip():
    x = s_mono((2, 1), 5) - s_mono((3,), 2)
    assert element_from_json_dict(x.to_json_dict()) == x
    t = TensorElement.monomial(("G", "G"), (1,), (2,), coeff=3)
    assert element_from_json_dict(t.to_json_dict()) == t


def test_tensor_basis_pair_must_be_two_nsym_bases():
    with pytest.raises(BasisMismatch):
        TensorElement(("X", "Y"), {((1,), (2,)): 1})
    data = {"side": "tensor", "basis": ["X", "Y"], "terms": [{"index": [[1], [2]], "coeff": "1"}]}
    with pytest.raises(BasisMismatch):
        element_from_json_dict(data)
    with pytest.raises(BasisMismatch):
        TensorElement.one(("G", "G")) + TensorElement.one(("S", "S"))


def test_tensor_degree_is_the_weight_of_both_legs():
    t = TensorElement.monomial(("G", "G"), (1,), (2,))
    assert t.is_homogeneous(3)
    assert not t.is_homogeneous(1) and not t.is_homogeneous(2)
    assert not (t + TensorElement.one(("G", "G"))).is_homogeneous(3)
    assert TensorElement(("G", "G")).is_homogeneous(3)


def test_tensor_swap_and_product():
    t = TensorElement.monomial(("S", "S"), (1,), (2,))
    assert t.permute((1, 0)) == TensorElement.monomial(("S", "S"), (2,), (1,))
    sq = t * t
    assert sq.coeff((1, 1), (2, 2)) == 1


def test_tensor_bases_are_any_nonempty_tuple_of_nsym_bases():
    with pytest.raises(BasisMismatch):
        TensorElement(())
    with pytest.raises(BasisMismatch):
        TensorElement(("G", "M"))
    with pytest.raises(BasisMismatch):
        TensorElement.one(("S", "S", "S")) + TensorElement.one(("S", "G", "S"))
    with pytest.raises(BasisMismatch):
        TensorElement.one(("S",)) + TensorElement.one(("S", "S"))
    assert TensorElement.one(["R", "L", "F"]).basis == ("R", "L", "F")


def test_split_leg_turns_k_legs_into_k_plus_one():
    t = TensorElement.monomial(("G", "S"), (1,), (2,))
    split = t.split_leg(1)
    assert split.basis == ("G", "S", "S")
    assert split == TensorElement(
        ("G", "S", "S"), {((1,), (), (2,)): 1, ((1,), (1,), (1,)): 1, ((1,), (2,), ()): 1}
    )
    assert coproduct(s_mono((2,))) == TensorElement.monomial(("S",), (2,)).split_leg(0)
    for m in (0, 2, -1):
        with pytest.raises(BasisMismatch):
            t.split_leg(m)


def split_leg_per_term(t, m):
    """The reference for `split_leg`: every term expands all of its
    splits, one per choice of a split of each part, and they merge after."""
    acc = {}
    for index, c in t.terms.items():
        head, tail = index[:m], index[m + 1 :]
        lefts, rights = [()], [()]
        for p in index[m]:
            pieces = [(a,) if a else () for a in range(p + 1)]
            lefts = [l + a for l in lefts for a in pieces]
            rights = [r + b for r in rights for b in reversed(pieces)]
        for l, r in zip(lefts, rights):
            k = (*head, l, r, *tail)
            acc[k] = acc.get(k, 0) + c
    return TensorElement((*t.basis[:m], "S", "S", *t.basis[m + 1 :]), acc)


def test_split_leg_equals_the_per_term_expansion():
    g = [lagrange.g_component(d) for d in range(7)]
    one_leg = [coproduct(x) for x in g]
    two_legs = [coproduct(g[5]), coproduct(g[3] - g[2] * g[1].scale(3))]
    # terms that agree off the split leg, and that cancel after the split
    three_legs = [t.split_leg(1) for t in two_legs] + [
        TensorElement(
            ("G", "S", "S"),
            {
                ((1,), (2, 1), ()): 2,
                ((1,), (1, 2), ()): -2,
                ((), (3,), (1,)): 5,
                ((1,), (1, 1, 1), ()): -1,
            },
        )
    ]
    for t in one_leg + two_legs + three_legs:
        for m, b in enumerate(t.basis):
            if b == "S":
                assert t.split_leg(m) == split_leg_per_term(t, m)
    g6 = TensorElement(("S",), {(i,): c for i, c in g[6].terms.items()})
    assert coproduct(g[6]) == split_leg_per_term(g6, 0)


def convert_per_term(t, target):
    """The reference for tensor `convert`: every term converts each of its
    legs on its own, as a one-term element, multiplies the legs' results
    out, and the terms merge after."""
    acc = {}
    for index, c in t.terms.items():
        legs = [
            convert(NSymElement.monomial(a, i), b).terms.items()
            for a, i, b in zip(t.basis, index, target)
        ]
        for choice in product(*legs):
            k = tuple(j for j, _ in choice)
            acc[k] = acc.get(k, 0) + c * prod(v for _, v in choice)
    return TensorElement(target, acc)


def test_tensor_convert_equals_the_per_term_conversion():
    g = [lagrange.g_component(d) for d in range(6)]
    bases = algebra.NSYM_BASES
    one_leg = TensorElement(("S",), {(i,): c for i, c in g[5].terms.items()})
    two_legs = [
        coproduct(g[4]),
        coproduct(g[3] - g[2] * g[1].scale(3)),
        # S^(1,1) - S^(2) is R_(1,1): the R_(2) terms cancel
        TensorElement(("S", "G"), {((1, 1), (2,)): 1, ((2,), (2,)): -1, ((3,), ()): 4}),
    ]
    three_legs = [
        coproduct(g[3]).split_leg(1),
        TensorElement(
            ("G", "R", "F"),
            {
                ((1,), (2, 1), ()): 2,
                ((1,), (1, 2), ()): -2,
                ((), (3,), (1,)): 5,
                ((1,), (1, 1, 1), (2,)): -1,
                ((2, 1), (1,), (1, 1)): 3,
            },
        ),
    ]
    cases = [(one_leg, [(b,) for b in bases])]
    cases += [(t, list(product(bases, repeat=2))) for t in two_legs]
    mixed = [("G", "G", "G"), ("L", "F", "R"), ("R", "S", "G"), ("F", "L", "S")]
    cases += [(t, mixed) for t in three_legs]
    for t, targets in cases:
        for target in targets:
            y = convert(t, target)
            assert y.basis == target
            assert y == convert_per_term(t, target), (t.basis, target)
            assert convert(y, t.basis) == t, (t.basis, target)
    cancelled = convert(two_legs[2], ("R", "G"))
    assert cancelled.coeff((2,), (2,)) == 0
    assert cancelled.coeff((1, 1), (2,)) == 1


def test_tensor_convert_takes_one_nsym_basis_per_leg():
    t = coproduct(lagrange.g_component(3))
    # "GG" has one letter per leg, but a tensor's target is a tuple
    for target in ("G", "GG", ("G",), ("G", "G", "G"), ("M", "S"), ("S", "C")):
        with pytest.raises(BasisMismatch):
            convert(t, target)


def test_three_leg_term_order_does_not_depend_on_insertion_order():
    # the first three terms tie on every leg's descent word
    terms = {
        ((1,), (1,), ()): 1,
        ((1,), (), (1,)): 2,
        ((), (1,), (1,)): 3,
        ((), (2,), ()): 4,
    }
    a = TensorElement(("S", "S", "S"), terms)
    b = TensorElement(("S", "S", "S"), dict(reversed(terms.items())))
    want = "3*1(x)S[1](x)S[1] + 2*S[1](x)1(x)S[1] + S[1](x)S[1](x)1 + 4*1(x)S[2](x)1"
    assert repr(a) == repr(b) == want
    assert a.to_json_dict() == b.to_json_dict()


def test_three_leg_tensor_format():
    t = TensorElement(("S", "G", "S"), {((1,), (), (2, 1)): -2, ((), (1,), ()): 1})
    assert repr(t) == "1(x)G[1](x)1 - 2*S[1](x)1(x)S[2,1]"
    assert t.to_json_dict() == {
        "side": "tensor",
        "basis": ["S", "G", "S"],
        "terms": [
            {"index": [[], [1], []], "coeff": "1"},
            {"index": [[1], [], [2, 1]], "coeff": "-2"},
        ],
    }
    assert t.coeff((1,), (), (2, 1)) == -2
    assert convert(t, t.basis) == t
