"""Property-based tests of the noncrossing bijections, the crossing test,
the composition codec and lattice walks, the basis conversions and their
walk over the basis trees, the product rule, the antipode, the scalar
functional equation, the series engine's inverse solve and inverse,
tensors, the profile code, the compatible-pair bijection and tree
rebuilding, on random inputs larger than the exhaustive tests reach."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nclag import algebra, compositions as comps, incidence as inc, lagrange, noncrossing as nc, parking
from nclag.algebra import NSymElement, QSymElement, TensorElement

from test_lagrange import series_product_component
from test_noncrossing import branch_blocks_by_paths, crosses_pairwise
from test_parking import parkize_by_shifts, profile_by_prefixes

MODEST = settings(max_examples=150, deadline=None)


@st.composite
def ndpf_words(draw, max_n=14):
    """Nondecreasing parking functions: w_i between w_(i-1) and i."""
    n = draw(st.integers(1, max_n))
    w = []
    for i in range(1, n + 1):
        w.append(draw(st.integers(w[-1] if w else 1, i)))
    return tuple(w)


@st.composite
def set_partitions(draw, max_n=16):
    """(n, blocks): a restricted growth word puts each element in an
    earlier block or a new one."""
    n = draw(st.integers(0, max_n))
    blocks = []
    for e in range(1, n + 1):
        k = draw(st.integers(0, len(blocks)))
        if k == len(blocks):
            blocks.append([e])
        else:
            blocks[k].append(e)
    return n, [tuple(b) for b in blocks]


@st.composite
def motzkin_paths(draw, max_n=16):
    n = draw(st.integers(1, max_n))
    path, height = [], 0
    for left in range(n, 0, -1):
        steps = ["H"] if height < left else []
        if height + 1 < left:
            steps.append("U")
        if height > 0:
            steps.append("D")
        step = draw(st.sampled_from(steps))
        height += {"U": 1, "D": -1, "H": 0}[step]
        path.append(step)
    return "".join(path)


@MODEST
@given(ndpf_words())
def test_ndpf_round_trip(w):
    assert parking.is_parking(w)
    assert nc.nc_to_ndpf(nc.ndpf_to_nc(w)) == w


@MODEST
@given(ndpf_words())
def test_nc_round_trip(w):
    p = nc.ndpf_to_nc(w)
    assert nc.ndpf_to_nc(nc.nc_to_ndpf(p)) == p


@MODEST
@given(ndpf_words())
def test_kreweras_twice_is_a_rotation(w):
    p = nc.ndpf_to_nc(w)
    n = p.n
    rotated = nc.NoncrossingPartition(n, [[(e - 2) % n + 1 for e in b] for b in p.blocks])
    assert nc.kreweras(nc.kreweras(p)) == rotated


@MODEST
@given(ndpf_words(max_n=12))
@example((1,) * 10)
@example((1,) * 11 + (12,))
def test_noncrossing_text_round_trip(w):
    # one block of 1..10 has ten singletons as its complement
    p = nc.ndpf_to_nc(w)
    for q in (p, nc.kreweras(p)):
        assert nc.from_text(nc.to_text(q)) == q


@st.composite
def binary_trees(draw, max_n=12):
    """A nonempty binary tree of up to max_n nodes, split at a random size
    at each node."""

    def build(n):
        if not n:
            return None
        k = draw(st.integers(0, n - 1))
        return nc.BinaryTree(build(k), build(n - 1 - k))

    return build(draw(st.integers(1, max_n)))


@MODEST
@given(binary_trees())
def test_rebuild_inverts_tau(t):
    assert nc.rebuild_tree(*nc.tau(t)) == t


@MODEST
@given(binary_trees(max_n=14))
def test_one_walk_reads_the_branches_of_the_path_reference(t):
    pl, pr = nc.tree_phi(t)
    assert pl.blocks == branch_blocks_by_paths(t, "L")
    assert pr.blocks == branch_blocks_by_paths(t, "R")


@MODEST
@given(motzkin_paths())
def test_motzkin_codec_round_trip(path):
    w = nc.path_to_word(path)
    assert nc.is_sprime_word(w)
    assert nc.word_to_path(w) == path
    s = nc.sprime_to_s(w)
    assert nc.is_s_word(s)
    assert nc.s_to_sprime(s) == w


@MODEST
@given(set_partitions(), st.data())
def test_crossing_test_equals_the_pairwise_reference(partition, data):
    n, blocks = partition
    crossing = crosses_pairwise(blocks)
    assert nc.is_noncrossing(blocks) is not crossing
    if not crossing:
        assert nc.NoncrossingPartition(n, blocks).blocks == tuple(blocks)
    # disjoint blocks over a ground set with gaps
    kept = [tuple(e for e in b if data.draw(st.booleans())) for b in blocks]
    assert nc.is_noncrossing(kept) is not crosses_pairwise(kept)


@st.composite
def s_elements(draw, max_degree=6):
    """Homogeneous elements on the S basis with a few random terms."""
    d = draw(st.integers(0, max_degree))
    index = st.sampled_from(comps.all_compositions(d))
    return NSymElement("S", draw(st.dictionaries(index, st.integers(-50, 50), max_size=6)))


@MODEST
@given(st.lists(st.integers(1, 30), max_size=8))
def test_composition_text_round_trip(parts):
    comp = tuple(parts)
    assert comps.from_text(comps.to_text(comp)) == comp


def composition_cut_at(descents, n):
    """The composition of n whose descent set is `descents`, any order."""
    cuts = [0, *sorted(set(descents)), n] if n else [0]
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


@st.composite
def compositions(draw, max_n=9):
    """A composition of n <= max_n, drawn as its descent set."""
    n = draw(st.integers(0, max_n))
    return composition_cut_at(draw(st.sets(st.integers(1, n - 1))) if n > 1 else (), n)


def reference_all_compositions(n):
    """Descent masks counted in binary, the descent at 1 most significant."""
    return [
        composition_cut_at([d for d in range(1, n) if mask >> (n - 1 - d) & 1], n)
        for mask in range(1 << max(n - 1, 0))
    ]


def reference_coarsenings(comp):
    """Every subset of Des(comp), by size, then in combinations order."""
    ds = comps.descent_set(comp)
    return [
        composition_cut_at(sub, sum(comp))
        for r in range(len(ds) + 1)
        for sub in itertools.combinations(ds, r)
    ]


def reference_refinements(comp):
    """Des(comp) with every subset of the other positions added, by size,
    then in combinations order."""
    n = sum(comp)
    fixed = set(comps.descent_set(comp))
    free = [d for d in range(1, n) if d not in fixed]
    return [
        composition_cut_at(fixed.union(sub), n)
        for r in range(len(free) + 1)
        for sub in itertools.combinations(free, r)
    ]


@MODEST
@given(compositions())
def test_lattice_walks_equal_the_descent_set_reference(comp):
    n = sum(comp)
    assert comps.all_compositions(n) == reference_all_compositions(n)
    assert comps.coarsenings(comp) == reference_coarsenings(comp)
    assert comps.refinements(comp) == reference_refinements(comp)


@MODEST
@given(compositions(max_n=14))
def test_profile_code_round_trip(comp):
    assert parking.c_map(parking.c_inverse(comp), sum(comp)) == comp


@MODEST
@given(st.lists(st.integers(1, 20), max_size=12).map(sorted).map(tuple))
def test_profile_is_the_greedy_prefix_cut(w):
    assert parking.profile(w) == profile_by_prefixes(w)


def _outcome(f, w):
    try:
        return f(w)
    except ValueError as e:
        return f"ValueError: {e}"


@MODEST
@given(st.lists(st.integers(-1, 6), max_size=12).flatmap(lambda w: st.sampled_from([w, sorted(w)])))
def test_profile_refuses_what_the_prefix_cut_refuses(w):
    w = tuple(w)
    assert _outcome(parking.profile, w) == _outcome(profile_by_prefixes, w)


@MODEST
@given(compositions(max_n=12).filter(bool), st.data())
def test_dumb_bijection_inverts_on_compatible_pairs(i_comp, data):
    j_comp = data.draw(st.sampled_from(parking.compatible_with(i_comp)))
    w = parking.dumb_bijection(i_comp, j_comp)
    assert parking.is_nondecreasing(w) and parking.is_parking(w)
    assert parking.dumb_bijection_inverse(w) == (i_comp, j_comp)


@MODEST
@given(ndpf_words())
def test_dumb_bijection_inverse_inverts_on_ndpfs(w):
    assert parking.dumb_bijection(*parking.dumb_bijection_inverse(w)) == w


@MODEST
@given(compositions(max_n=14))
def test_unmask_inverts_the_descent_mask(comp):
    assert algebra._unmask(sum(comp), algebra._revlex_key(comp)) == comp


@MODEST
@given(st.integers(0, 9))
def test_revlex_key_orders_compositions_as_all_compositions(n):
    order = comps.all_compositions(n)
    assert sorted(reversed(order), key=algebra._revlex_key) == order


@settings(max_examples=60, deadline=None)
@given(s_elements(), st.sampled_from(["G", "L", "R", "F"]))
def test_conversion_from_s_and_back(x, basis):
    y = algebra.convert(x, basis)
    assert y.basis == basis
    assert algebra.convert(y, "S") == x


@st.composite
def m_elements(draw, max_degree=5):
    """Homogeneous elements on the M basis with a few random terms."""
    d = draw(st.integers(0, max_degree))
    index = st.sampled_from(comps.all_compositions(d))
    return QSymElement("M", draw(st.dictionaries(index, st.integers(-50, 50), max_size=6)))


@settings(max_examples=60, deadline=None)
@given(m_elements(), st.sampled_from(["E", "V", "C"]))
def test_conversion_from_m_and_back(x, basis):
    y = algebra.convert(x, basis)
    assert y.basis == basis
    assert algebra.convert(y, "M") == x


@st.composite
def nonzero_terms(draw, max_degree=5):
    """A few nonzero terms of one degree, to be read on any basis."""
    d = draw(st.integers(0, max_degree))
    index = st.sampled_from(comps.all_compositions(d))
    coeff = st.integers(-50, 50).filter(bool)
    return draw(st.dictionaries(index, coeff, min_size=1, max_size=6))


# (element class, root of the basis tree, bases) of each side
SIDES = [(NSymElement, "S", algebra.NSYM_BASES), (QSymElement, "M", algebra.QSYM_BASES)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIDES), nonzero_terms())
def test_every_conversion_equals_the_route_through_the_root_and_inverts(side, terms):
    cls, root, bases = side
    for a in bases:
        x = cls(a, terms)
        for b in bases:
            y = algebra.convert(x, b)
            assert y.basis == b
            assert y == algebra.convert(algebra.convert(x, root), b)
            assert algebra.convert(y, a) == x


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SIDES), nonzero_terms(max_degree=3), st.data())
def test_conversion_never_leaves_its_side(side, terms, data):
    cls, _, bases = side
    others = [b for b in algebra.NSYM_BASES + algebra.QSYM_BASES if b not in bases]
    target = data.draw(
        st.one_of(st.sampled_from(others), st.text(max_size=2)).filter(lambda t: t not in bases)
    )
    for a in bases:
        with pytest.raises(algebra.BasisMismatch):
            algebra.convert(cls(a, terms), target)


@settings(max_examples=60, deadline=None)
@given(s_elements(max_degree=4), s_elements(max_degree=4))
def test_antipode_reverses_products(x, y):
    # an involution check cannot tell the antipode from neg_alphabet
    assert algebra.antipode(x * y) == algebra.antipode(y) * algebra.antipode(x)


def _truncated_power(a, p, N):
    """Coefficients 0..N of (sum_d a[d] t^d)^p by plain convolution."""
    out = [Fraction(1)] + [Fraction(0)] * N
    for _ in range(p):
        out = [sum(out[k] * a[d - k] for k in range(d + 1)) for d in range(N + 1)]
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=6))
def test_generator_values_solve_the_functional_equation(tail):
    phi = inc.MultiplicativeFunction([1] + tail)
    a = inc.g_values(phi)
    N = phi.max_degree
    # Phi = 1 + sum_n hat_n t^n Phi^n, degree by degree
    rhs = [Fraction(1)] + [Fraction(0)] * N
    for n in range(1, N + 1):
        power = _truncated_power(a, n, N)
        for d in range(n, N + 1):
            rhs[d] += phi.hat[n] * power[d - n]
    assert a == rhs
    assert inc.from_g_values(a) == phi


# the rules r(n) of X = 1 + sum_n a_n X^r(n), by name
RULES = {"0": lambda n: 0, "1": lambda n: 1, "n": lambda n: n, "2n": lambda n: 2 * n}


@st.composite
def functional_equations(draw, max_n=6):
    """(N, rule, a): a rule name and a_0 = 1, a_1..a_N homogeneous on the S
    basis with a few small integer terms."""
    N = draw(st.integers(1, max_n))
    rule = draw(st.sampled_from(sorted(RULES)))
    a = [NSymElement.one("S")]
    for n in range(1, N + 1):
        index = st.sampled_from(comps.all_compositions(n))
        a.append(NSymElement("S", draw(st.dictionaries(index, st.integers(-3, 3), max_size=3))))
    return N, rule, a


@settings(max_examples=40, deadline=None)
@given(functional_equations())
def test_the_inverse_solve_recovers_the_coefficients_solved_for(equation):
    N, rule, a = equation
    x = lagrange.solve_functional_equation(a.__getitem__, RULES[rule], N)
    assert lagrange.coefficients_of(x, RULES[rule], N).components == a


@settings(max_examples=40, deadline=None)
@given(functional_equations())
def test_series_inverse_is_two_sided_on_solved_series(equation):
    N, rule, a = equation
    x = lagrange.solve_functional_equation(a.__getitem__, RULES[rule], N)
    y = lagrange.series_inverse(x)
    for d in range(N + 1):
        want = NSymElement.one("S") if d == 0 else NSymElement.zero("S")
        assert series_product_component(x, y, d) == want
        assert series_product_component(y, x, d) == want


@st.composite
def tensors(draw, basis="S", max_degree=3):
    """Tensors on a multiplicative basis pair with a few random terms."""
    legs = st.integers(0, max_degree).flatmap(lambda d: st.sampled_from(comps.all_compositions(d)))
    terms = draw(st.dictionaries(st.tuples(legs, legs), st.integers(-9, 9), max_size=4))
    return TensorElement((basis, basis), terms)


@settings(max_examples=60, deadline=None)
@given(tensors(), tensors(), tensors())
def test_tensor_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def descent_word(comp):
    """The 0/1 descent word of a composition (empty for weights 0 and 1)."""
    ds = set(comps.descent_set(comp))
    return tuple(1 if d in ds else 0 for d in range(1, sum(comp)))


@settings(max_examples=60, deadline=None)
@given(tensors(max_degree=4))
# left legs of weights 0 and 1 share the empty word: the right legs decide
@example(TensorElement(("S", "S"), {((), (2,)): 1, ((1,), (1,)): 1, ((), (1, 1)): 1}))
# ... and when the right legs share theirs too, the leg weights decide
@example(TensorElement(("S", "S"), {((1,), ()): 1, ((), (1,)): 1}))
def test_tensor_terms_sort_by_total_weight_then_each_leg_descent_word(t):
    # the legs of one total weight differ in weight, so their descent words
    # differ in length: a prefix sorts first; the leg weights break ties
    want = sorted(
        t.terms.items(),
        key=lambda kv: (
            t._weight(kv[0]), descent_word(kv[0][0]), descent_word(kv[0][1]), *map(sum, kv[0])
        ),
    )
    assert t._sorted_terms() == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["S", "G", "R"]).flatmap(tensors))
def test_tensor_swap_and_json_round_trips(t):
    assert t.permute((1, 0)).permute((1, 0)) == t
    assert algebra.element_from_json_dict(json.loads(json.dumps(t.to_json_dict()))) == t


def mixed_weight_terms(max_weight, max_size):
    """A few random terms of mixed weights up to `max_weight`, to be read on
    any basis."""
    index = st.integers(0, max_weight).flatmap(lambda d: st.sampled_from(comps.all_compositions(d)))
    return st.dictionaries(index, st.integers(-9, 9), max_size=max_size)


def mixed_weight_s_elements(max_weight=5):
    """S-basis elements of weight at most `max_weight`, a few random terms
    of mixed weights (`s_elements` draws homogeneous ones)."""
    return mixed_weight_terms(max_weight, 4).map(lambda terms: NSymElement("S", terms))


@settings(max_examples=40, deadline=None)
@given(mixed_weight_s_elements())
def test_delta_on_either_leg_of_a_coproduct_agrees(x):
    t = algebra.coproduct(x)
    assert t.split_leg(0) == t.split_leg(1)


@st.composite
def k_leg_tensors(draw, k, max_degree=3):
    """Tensors with k legs on random NSym bases and a few random terms."""
    bases = draw(st.tuples(*[st.sampled_from(algebra.NSYM_BASES)] * k))
    legs = st.integers(0, max_degree).flatmap(lambda d: st.sampled_from(comps.all_compositions(d)))
    terms = draw(st.dictionaries(st.tuples(*[legs] * k), st.integers(-9, 9), max_size=4))
    return TensorElement(bases, terms)


@settings(max_examples=60, deadline=None)
@given(k_leg_tensors(3), st.permutations(range(3)), st.permutations(range(3)))
def test_leg_permutations_compose_and_invert(t, p, q):
    # leg m of t.permute(p) is leg p[m] of t
    s = t.permute(p)
    assert s.basis == tuple(t.basis[m] for m in p)
    assert all(s.coeff(*(i[m] for m in p)) == c for i, c in t.terms.items())
    assert s.permute(q) == t.permute([p[m] for m in q])
    assert s.permute(sorted(range(3), key=p.__getitem__)) == t


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_k_leg_tensor_json_round_trips(k, data):
    t = data.draw(k_leg_tensors(k))
    assert algebra.element_from_json_dict(json.loads(json.dumps(t.to_json_dict()))) == t


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-3, 40), max_size=24).map(sorted))
def test_one_pass_parkization_equals_the_shifting_loop(w):
    assert parking.parkize(w) == parkize_by_shifts(w)


@settings(max_examples=60, deadline=None)
@given(k_leg_tensors(3, max_degree=4))
def test_three_leg_terms_sort_by_total_weight_then_each_leg_descent_word(t):
    want = sorted(
        t.terms.items(),
        key=lambda kv: (t._weight(kv[0]), *map(descent_word, kv[0]), *map(sum, kv[0])),
    )
    assert t._sorted_terms() == want


@pytest.mark.parametrize("basis", algebra.NSYM_BASES)
@settings(max_examples=20, deadline=None)
@given(a=mixed_weight_terms(3, 3), b=mixed_weight_terms(3, 3), c=mixed_weight_terms(3, 3))
def test_every_nsym_product_is_the_product_on_s_and_associative(basis, a, b, c):
    x, y, z = (NSymElement(basis, t) for t in (a, b, c))
    xy = x * y
    assert xy.basis == basis
    assert algebra.convert(xy, "S") == algebra.convert(x, "S") * algebra.convert(y, "S")
    assert xy * z == x * (y * z)


@settings(max_examples=30, deadline=None)
@given(k_leg_tensors(2).filter(lambda t: not {"R", "F"}.isdisjoint(t.basis)), k_leg_tensors(2))
def test_a_tensor_with_an_r_or_f_leg_multiplies_as_its_s_image(t, other):
    u = TensorElement(t.basis, other.terms)
    to_s = lambda x: algebra.convert(x, ("S", "S"))
    assert to_s(t * u) == to_s(t) * to_s(u)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(algebra.QSYM_BASES), mixed_weight_terms(3, 3), mixed_weight_terms(3, 3))
def test_qsym_product_is_refused(basis, a, b):
    with pytest.raises(algebra.BasisMismatch, match="quasi-shuffle"):
        QSymElement(basis, a) * QSymElement(basis, b)
