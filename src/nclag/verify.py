"""Cross-route verification suites for ``nclag verify``.

Each case computes one quantity by two or more named routes, calling each
through its module attribute, and `_case` compares them.  A failing case's
witness adds ``routes`` (the first route and the first that disagrees with
it), ``term`` (the first key, in sorted order, at which they differ) and
``values`` (both values there) to the case's parameters: an element is read
by its terms, a list of elements (series components) by (degree, index),
another list by position, a dict as itself and a set by membership; a
scalar has no ``term``.  Each suite is a generator ``suite(max_n)`` that
compares a case's routes before yielding it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from . import algebra, compositions as comps, factorization, hopf, incidence
from . import lagrange, noncrossing, parking


def _read(value):
    """A route's value as (map from keys, the value at a missing key), or
    None for a scalar."""
    if isinstance(value, algebra._Element):
        return value.terms, 0
    if isinstance(value, dict):
        return value, 0
    if isinstance(value, set):
        return dict.fromkeys(value, True), False
    if isinstance(value, list):
        if all(isinstance(x, algebra._Element) for x in value):
            return {(d, i): c for d, x in enumerate(value) for i, c in x.terms.items()}, 0
        return dict(enumerate(value)), None
    return None


def _case(label, params, **routes):
    """The (label, ok, witness) triple of a case whose routes, given by
    name, must all be equal."""
    (first, x), *others = routes.items()
    for name, y in others:
        if y != x:
            return label, False, {**params, "routes": [first, name], **_difference(x, y)}
    return label, True, params


def _difference(x, y):
    """``term`` and ``values`` of two unequal route values (see above)."""
    read = _read(x), _read(y)
    if None not in read:
        (xs, missing), (ys, _) = read
        differ = [k for k in xs.keys() | ys.keys() if xs.get(k, missing) != ys.get(k, missing)]
        if differ:
            term = min(differ)
            return {"term": term, "values": [xs.get(term, missing), ys.get(term, missing)]}
    return {"values": [x, y]}


def _routes(module, names, *args):
    """The routes `names` of `module`, each called on args, by name."""
    return {name: getattr(module, name)(*args) for name in names}


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _branch_tally(n):
    """The binary trees with n + 1 nodes tallied by the edge counts of
    their maximal left chains and of their maximal right chains, sorted:
    the commutative image of Delta g_n, read off the trees themselves."""
    memo = {id(None): (-1, -1, (), ())}

    def chains(t):
        # the edges of t's left and right spines, and of its other chains
        if id(t) not in memo:
            (a, b, ls, rs), (c, d, lt, rt) = chains(t.left), chains(t.right)
            memo[id(t)] = a + 1, d + 1, ls + lt + (c,) * (c > 0), rs + rt + (b,) * (b > 0)
        return memo[id(t)]

    tally = Counter()
    for a, b, ls, rs in map(chains, noncrossing.enumerate_trees(n + 1)):
        key = ls + (a,) * (a > 0), rs + (b,) * (b > 0)
        tally[tuple(tuple(sorted(leg, reverse=True)) for leg in key)] += 1
    return tally


def cases(suite, max_n):
    """A suite's cases; a failed internal check (an ArithmeticError of
    `kreweras`, `tree_phi`, `multichain_count`, `chain_count` or
    `delta_g_noncrossing`) ends it as a failed case."""
    try:
        yield from suite(max_n)
    except ArithmeticError as e:
        yield "internal invariant holds", False, {"error": str(e)}


# ---------------------------------------------------------------------------
# Suites
#
# A suite frees each route value in the last case that reads it: the case
# is built, the names are deleted, then it is yielded.  A value still bound
# at a yield would be freed in the next case's time.


def _suite_lagrange(max_n):
    for n in range(max_n + 1):
        yield _case(
            f"g expansion counts ndpf types, n={n}",
            {"n": n},
            g_component=lagrange.g_component(n),
            gk_component_via_ndpf=lagrange.gk_component_via_ndpf(1, n),
        )
    k_routes = ("gk_component", "gk_component_iterative", "gk_component_via_phi")
    parking_routes = ("gk_component", "gk_component_via_ndpf")
    for k in (2, 3):
        for n in range(min(max_n, 4) + 1):
            params = {"k": k, "n": n}
            label = f"k-analogue routes agree, k={k} n={n}"
            yield _case(label, params, **_routes(lagrange, k_routes, k, n))
            label = f"k-parking expansion, k={k} n={n}"
            yield _case(label, params, **_routes(lagrange, parking_routes, k, n))
    # g(-A) is inverted by the cumulant series and by sum_n S_n g(-A)^n
    inverse = lagrange.series_inverse(lagrange._neg_g_series(max_n)).components
    cumulants = lagrange.free_cumulants(max_n).components
    label = "free cumulant functional equation"
    case = _case(label, {"N": max_n}, free_cumulants=cumulants, series_inverse=inverse)
    del cumulants
    yield case
    for n in range(1, max_n + 1):
        # K_n on S carries the coefficients of S_n on G
        kn, sn = lagrange.free_cumulants(n).component(n), lagrange.s_generator_on_g(n)
        case = _case(f"cumulant reciprocity, n={n}", {"n": n}, k_n=kn.terms, s_n_on_g=sn.terms)
        del kn, sn
        yield case
    fixed_point = lagrange.neg_g_inverse_fixed_point(max_n)
    label = "inverse series fixed point"
    case = _case(
        label, {"N": max_n}, series_inverse=inverse, neg_g_inverse_fixed_point=fixed_point
    )
    del inverse, fixed_point
    yield case


def _suite_bases(max_n):
    sides = (algebra.NSymElement, algebra.NSYM_BASES), (algebra.QSymElement, algebra.QSYM_BASES)
    for n in range(max_n + 1):
        for side, bases in sides:
            home = bases[0]
            for basis in bases[1:]:
                xs = [side.monomial(home, i) for i in comps.all_compositions(n)]
                back = [algebra.convert(algebra.convert(x, basis), home) for x in xs]
                label = f"{home}<->{basis} round trip, n={n}"
                case = _case(label, {"n": n, "basis": basis}, monomials=xs, round_trip=back)
                del xs, back
                yield case
    for n in range(1, min(max_n, 5) + 1):
        gn = lagrange.g_component(n)
        conjugate = gn.map_indices(comps.conjugate)
        case = _case(f"conjugate reading fixes g, n={n}", {"n": n}, g=gn, conjugate=conjugate)
        del gn, conjugate
        yield case
    routes = ("s_generator_on_g", "s_to_g_via_recipe")
    for n in range(1, max_n + 1):
        yield _case(f"generator on G via recipe, n={n}", {"n": n}, **_routes(lagrange, routes, n))


def _suite_negation(max_n):
    routes = ("g_neg", "g_neg_via_pairing", "g_neg_via_counting", "g_neg_via_doubling")
    for n in range(max_n + 1):
        label = f"negated alphabet routes agree, n={n}"
        yield _case(label, {"n": n}, **_routes(lagrange, routes, n))
        neg = algebra.neg_alphabet(lagrange.g_component(n))
        counted = lagrange.g_neg_s_via_counting(n)
        label = f"negated S-coefficients, n={n}"
        case = _case(label, {"n": n}, neg_alphabet=neg, g_neg_s_via_counting=counted)
        del neg, counted
        yield case


def _suite_antipode(max_n):
    routes = ("antipode_g", "antipode_g_four_step", "antipode_g_formula")
    for n in range(max_n + 1):
        yield _case(f"antipode routes agree, n={n}", {"n": n}, **_routes(lagrange, routes, n))


def _weighted_biprofiles(n):
    """The parking biprofiles (P, Q) of size n, each weighted by
    Π Cat(c_i) · Π Cat(d_j) over the lengths of P and Q: the number of
    pairs of words with profiles P and Q."""
    catalan = [_catalan(c) for c in range(n + 1)]
    return {
        (p, q): math.prod([catalan[c] for c in p[1] + q[1]])
        for p, q in parking.enumerate_parking_biprofiles(n)
    }


def _suite_coproduct(max_n):
    routes = ("delta_g_algebraic", "delta_g_biprofiles", "delta_g_noncrossing", "delta_g_trees")
    for n in range(max_n + 1):
        values = _routes(hopf, routes, n)
        a, nc = values["delta_g_algebraic"], values["delta_g_noncrossing"]
        case = _case(f"coproduct routes agree, n={n}", {"n": n}, **values)
        del values
        yield case
        case = _case(f"cocommutative, n={n}", {"n": n}, delta_g=a, swapped=a.permute((1, 0)))
        del a
        yield case
        # (Delta x id) Delta g_n = (id x Delta) Delta g_n on three-leg S tensors
        t = algebra.coproduct(lagrange.g_component(n))
        left, right = t.split_leg(0), t.split_leg(1)
        case = _case(f"coassociative, n={n}", {"n": n}, delta_x_id=left, id_x_delta=right)
        del t, left, right
        yield case
        # the splits (u, v) of the index words, tallied by (profile u, profile v)
        weighted, splits = _weighted_biprofiles(n), hopf.split_biprofile_tally(n)
        label = f"biprofile regrouping, n={n}"
        case = _case(label, {"n": n}, parking_biprofiles=weighted, split_biprofile_tally=splits)
        del weighted, splits
        yield case
        image, trees = hopf.delta_g_commutative(nc), _branch_tally(n)
        label = f"commutative tree series, n={n}"
        case = _case(label, {"n": n}, delta_g_noncrossing=image, binary_trees=trees)
        del nc, image, trees
        yield case
    if max_n >= 5:
        for value, j in ((7, (1, 2)), (11, (2, 1))):
            label = f"coefficient {value} at ({j[0]},{j[1]})|(1,1)"
            coeff = hopf.delta_g_algebraic(5).coeff(j, (1, 1))
            yield _case(label, {"n": 5}, delta_g_algebraic=coeff, stated=value)


def _suite_trees(max_n):
    for n in range(1, max_n + 1):
        trees = list(noncrossing.enumerate_trees(n))
        images = [noncrossing.tau(t) for t in trees]
        yield _case(f"tau injective, n={n}", {"n": n}, trees=len(trees), images=len(set(images)))
        rebuilt = [noncrossing.rebuild_tree(*ij) for ij in images]
        case = _case(f"rebuild round trip, n={n}", {"n": n}, trees=trees, rebuild_tree=rebuilt)
        del trees, images, rebuilt
        yield case
    for n in range(1, min(max_n, 7) + 1):
        trees, labels = noncrossing.enumerate_trees(n), range(1, n + 1)
        found = [noncrossing.infix_successor(t, i) for t in trees for i in labels]
        expected = [i % n + 1 for _ in trees for i in labels]
        label = f"infix successor rule, n={n}"
        case = _case(label, {"n": n}, infix_successor=found, next_label=expected)
        del trees, found, expected
        yield case


def _suite_kreweras(max_n):
    for n in range(1, max_n + 1):
        ps = noncrossing.enumerate_nc(n)
        blocks = [len(p.blocks) + len(noncrossing.kreweras(p).blocks) for p in ps]
        label = f"block count complement, n={n}"
        case = _case(label, {"n": n}, blocks=blocks, n_plus_one=[n + 1] * len(ps))
        del ps, blocks
        yield case
    for n in range(1, min(max_n, 7) + 1):
        # tree_phi raises ArithmeticError unless the right branches are the
        # Kreweras complement of the left ones, which `cases` reports; the
        # case compares the block counts of the pairs it returns
        pairs = map(noncrossing.tree_phi, noncrossing.enumerate_trees(n))
        blocks = [len(left.blocks) + len(right.blocks) for left, right in pairs]
        label = f"tree partitions are complements, n={n}"
        case = _case(label, {"n": n}, blocks=blocks, n_plus_one=[n + 1] * len(blocks))
        del pairs, blocks
        yield case


def _suite_appendix(max_n):
    for n in range(1, max_n + 1):
        pairs = parking.enumerate_compatible_pairs(n)
        label = f"compatible pair count Catalan, n={n}"
        yield _case(label, {"n": n}, compatible_pairs=len(pairs), catalan=_catalan(n))
        words = [parking.dumb_bijection(i, j) for i, j in pairs]
        back = [parking.dumb_bijection_inverse(w) for w in words]
        case = _case(f"direct bijection round trip, n={n}", {"n": n}, pairs=pairs, inverse=back)
        del pairs, back
        yield case
        ndpf = set(parking.enumerate_ndpf(n))
        label = f"direct bijection onto ndpf, n={n}"
        case = _case(label, {"n": n}, dumb_bijection=set(words), enumerate_ndpf=ndpf)
        del words, ndpf
        yield case
    for n in range(1, min(max_n, 10) + 1):
        words = noncrossing.enumerate_s_words(n)
        primes = [noncrossing.s_to_sprime(w) for w in words]
        back = [noncrossing.sprime_to_s(w) for w in primes]
        paths = [noncrossing.path_to_word(noncrossing.word_to_path(w)) for w in primes]
        pairs, back = list(zip(words, primes)), list(zip(back, paths))
        case = _case(f"Motzkin codec round trip, n={n}", {"n": n}, words=pairs, round_trips=back)
        del words, primes, back, paths, pairs
        yield case
    for n in range(1, min(max_n, 12) + 1):
        touchard = sum(
            2 ** (n - 2 * k) * math.comb(n, 2 * k) * _catalan(k) for k in range(n // 2 + 1)
        )
        # the Motzkin path of each source word, 2^(its H steps) times
        bicolored = sum(
            2 ** noncrossing.word_to_path(noncrossing.s_to_sprime(w)).count("H")
            for w in noncrossing.enumerate_s_words(n)
        )
        label = f"Touchard identity, n={n}"
        routes = {"touchard": touchard, "catalan": _catalan(n + 1), "motzkin_paths": bicolored}
        yield _case(label, {"n": n}, **routes)


def _suite_factorization(max_n):
    for n in range(1, max_n + 1):
        for i in comps.all_compositions(n):
            if comps.weight(i) + len(i) <= 8:
                label = f"factorization counts match coproduct, I={comps.to_text(i)}"
                yield _case(
                    label,
                    {"index": list(i)},
                    factorization_tally=factorization.factorization_tally(i),
                    delta_g_monomial=hopf.delta_g_monomial(i),
                )


def _suite_incidence(max_n):
    N = min(max_n, 6)
    for n, value in enumerate(incidence.g_values(incidence.mobius(N))):
        label = f"Moebius values signed Catalan, n={n}"
        yield _case(label, {"n": n}, g_values=value, signed_catalan=(-1) ** n * _catalan(n))
    for n in range(2, N + 2):
        lat = incidence.lattice_oracle(n)
        mu, signed = lat.mobius(lat.bottom, lat.top), (-1) ** (n - 1) * _catalan(n - 1)
        label = f"lattice Moebius recursion, n={n}"
        case = _case(label, {"n": n}, lattice=mu, signed_catalan=signed)
        del lat
        yield case
    for k in (1, 2, 3):
        gv = incidence.g_values(incidence.zeta_power(k, N))
        closed = [incidence.zeta_power_value(k, n) for n in range(N + 1)]
        label = f"zeta power closed form, k={k}"
        case = _case(label, {"k": k}, g_values=gv, zeta_power_value=closed)
        del gv, closed
        yield case
    for n in range(1, min(max_n, 4) + 1):
        for k in (1, 2, 3):
            oracle = incidence.lattice_oracle(n + 1).count_multichains(k)
            count = incidence.multichain_count(n, k)
            label = f"multichain count vs oracle, n={n} k={k}"
            yield _case(label, {"n": n, "k": k}, lattice=oracle, multichain_count=count)
    for m in range(2, min(max_n + 1, 6) + 1):
        lat = incidence.lattice_oracle(m)
        jumps = [s for r in range(1, m) for s in itertools.product(range(1, m), repeat=r)]
        oracle = {s: lat.count_chains(s) for s in jumps if sum(s) == m - 1}
        counts = {s: incidence.chain_count(m, s) for s in oracle}
        case = _case(f"Edelman chain counts, n+1={m}", {"m": m}, lattice=oracle, chain_count=counts)
        del lat, jumps, oracle, counts
        yield case


SUITES = {
    "lagrange": _suite_lagrange,
    "bases": _suite_bases,
    "negation": _suite_negation,
    "antipode": _suite_antipode,
    "coproduct": _suite_coproduct,
    "trees": _suite_trees,
    "kreweras": _suite_kreweras,
    "appendix": _suite_appendix,
    "factorization": _suite_factorization,
    "incidence": _suite_incidence,
}
