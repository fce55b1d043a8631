"""Each of the 14 edges of the basis trees against a per-term reference:
the ten refinement/coarsening edges against spreading every term over its
refinements or coarsenings with an explicit sign, the S <-> G edges against
multiplying out every monomial on its own, and the M <-> C edges against
the transposed columns of those two references."""

import pytest
from hypothesis import example, given, settings, strategies as st

from nclag import algebra, compositions as comps, lagrange
from nclag.algebra import NSymElement


def spread(related, sign=lambda i, j: 1):
    """X_I = sum over J in related(I) of sign(I, J) Y_J, term by term."""

    def edge(terms):
        acc = {}
        for i, c in terms.items():
            for j in related(i):
                acc[j] = acc.get(j, 0) + c * sign(i, j)
        return acc

    return edge


def length_sign(i, j):
    return (-1) ** ((len(i) - len(j)) % 2)


def weight_sign(i, j):
    return (-1) ** (sum(j) - len(j))


def product_form(factor):
    """sum of c_I factor(i_1) ... factor(i_r), each monomial multiplied out
    from the left on its own."""

    def edge(terms):
        acc = {}
        for i, c in terms.items():
            head = {(): c}
            for p in i:
                head = algebra._mul_into({}, head, factor(p))
            algebra._add_into(acc, head)
        return acc

    return edge


def transposed(forward):
    """The dual basis change of `forward`: each term at I spreads over the
    J coarser than I, with the coefficient of I in forward(J).  forward(J)
    is a product of one expansion per part of J, so it lives on the
    refinements of J."""

    def edge(terms):
        acc = {}
        for i, c in terms.items():
            for j in comps.coarsenings(i):
                acc[j] = acc.get(j, 0) + c * forward({j: 1}).get(i, 0)
        return acc

    return edge


G_TO_S = product_form(lambda p: lagrange.g_component(p).terms)
S_TO_G = product_form(lambda p: lagrange.s_generator_on_g(p).terms)

REFERENCE = {
    ("L", "S"): spread(comps.refinements, weight_sign),
    ("S", "L"): spread(comps.refinements, weight_sign),
    ("R", "S"): spread(comps.coarsenings, length_sign),
    ("S", "R"): spread(comps.coarsenings),
    ("G", "S"): G_TO_S,
    ("S", "G"): S_TO_G,
    ("F", "G"): spread(comps.refinements, length_sign),
    ("G", "F"): spread(comps.refinements),
    ("E", "M"): spread(comps.coarsenings),
    ("V", "M"): spread(comps.coarsenings, lambda i, j: (-1) ** (sum(i) - len(i))),
    ("M", "E"): spread(comps.coarsenings, length_sign),
    ("M", "V"): spread(comps.coarsenings, lambda i, j: length_sign(i, j) * weight_sign(i, j)),
    # <M_I, G^J> is the coefficient of S^I in G^J, and <C_J, S^I> that of
    # G^J in S^I
    ("C", "M"): transposed(S_TO_G),
    ("M", "C"): transposed(G_TO_S),
}


def nonzero(terms):
    return {i: c for i, c in terms.items() if c}


def test_every_edge_has_a_reference():
    assert set(REFERENCE) == set(algebra._EDGES)


@st.composite
def mixed_terms(draw, max_degree=7):
    """A few terms of several weights, weight 0 included, some coefficients
    zero."""
    index = st.integers(0, max_degree).flatmap(lambda d: st.sampled_from(comps.all_compositions(d)))
    return draw(st.dictionaries(index, st.integers(-20, 20), max_size=8))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(REFERENCE)), mixed_terms())
@example(("S", "L"), {(): 3, (1,): -1, (2, 1, 3): 2, (4,): 0})
@example(("M", "E"), {(1, 1, 1, 1, 1, 1, 1): 1, (3, 4): -2, (): 1})
def test_each_edge_equals_its_per_term_reference(edge, terms):
    given_terms = dict(terms)
    got = algebra._EDGES[edge](terms)
    assert got is not terms
    assert terms == given_terms
    assert nonzero(got) == nonzero(REFERENCE[edge](terms))
    assert all(type(c) is int for c in got.values())


@pytest.mark.parametrize("edge", sorted(REFERENCE))
def test_each_edge_on_a_dense_element(edge):
    terms = {i: k % 7 - 3 for k, i in enumerate(comps.all_compositions(7))}
    assert nonzero(algebra._EDGES[edge](terms)) == nonzero(REFERENCE[edge](terms))


def test_s_to_g_of_a_long_monomial():
    ones = (1,) * 1200
    x = NSymElement.monomial("S", ones)
    y = algebra.convert(x, "G")
    assert y == NSymElement.monomial("G", ones)
    assert y.terms == REFERENCE["S", "G"](x.terms)
    assert algebra.convert(y, "S") == x


def test_s_generators_on_g_equal_the_product_form_peeling():
    to_g = REFERENCE["S", "G"]
    for n in range(1, 9):
        rest = {j: -c for j, c in lagrange.g_component(n).terms.items() if j != (n,)}
        want = algebra._add_into({(n,): 1}, to_g(rest))
        assert lagrange.s_generator_on_g(n).terms == nonzero(want)
