"""Coproduct of the Lagrange series components on the G(x)G basis,
computed by three independent routes, plus the word-level coproduct that
justifies the biprofile route and the commutative two-alphabet check.
"""

from __future__ import annotations

from collections import Counter

from . import algebra, lagrange, noncrossing, parking
from .algebra import TensorElement, coproduct as s_coproduct
from .cache import cached

# Each route of Delta g_n is memoized per n on its own, so no route reads
# another's result: the CLI and `verify` ask for the same n again and again.


@cached(guard=lagrange._check_bound)
def delta_g_algebraic(n) -> TensorElement:
    """Coproduct of g_n: expand on S, split the generators, convert each
    tensor leg back to the G basis."""
    return algebra.convert(s_coproduct(lagrange.g_component(n)), ("G", "G"))


@cached
def delta_g_biprofiles(n) -> TensorElement:
    """Coproduct tallied over parking biprofiles: each contributes the
    monomial indexed by its two length tuples."""
    tally = Counter(
        (left[1], right[1]) for left, right in parking.enumerate_parking_biprofiles(n)
    )
    return TensorElement(("G", "G"), tally)


@cached
def delta_g_noncrossing(n) -> TensorElement:
    """Coproduct tallied over noncrossing partitions of a set one larger:
    reduced ordered type on the left leg, reduced ordered type of the
    Kreweras complement on the right."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tally = Counter(
        (p.reduced_ordered_type(), noncrossing.kreweras(p).reduced_ordered_type())
        for p in noncrossing.enumerate_nc(n + 1)
    )
    return TensorElement(("G", "G"), tally)


def delta_g_monomial(index) -> TensorElement:
    """Coproduct of a G-basis monomial (multiplicative extension), with one
    coproduct per distinct part."""
    factors = {p: delta_g_algebraic(p) for p in set(index)}
    out = TensorElement.one(("G", "G"))
    for p in index:
        out = out * factors[p]
    return out


# ---------------------------------------------------------------------------
# Word-level coproduct of the P basis


def _submultisets(letters):
    """All distinct sub-multisets u of a letter multiset, each with its
    complement v, as pairs (u, v) of sorted tuples."""
    counts = sorted(Counter(letters).items())
    out = [((), ())]
    for letter, mult in counts:
        out = [
            (u + (letter,) * k, v + (letter,) * (mult - k))
            for u, v in out
            for k in range(mult + 1)
        ]
    return out


def unparkized_terms(pi):
    """Multiplicity-free splits: all (u, v) with u a sub-multiset of pi and
    v its complement, both sorted."""
    pi = tuple(pi)
    if not parking.is_ndpf(pi):
        raise ValueError("index word must be a nondecreasing parking function")
    return _submultisets(pi)


def coproduct_P(pi):
    """The parkized coproduct: tally of (parkize(u), parkize(v)) over all
    splits, with multiplicities."""
    tally = Counter()
    for u, v in unparkized_terms(pi):
        tally[(parking.parkize(u), parking.parkize(v))] += 1
    return dict(tally)


def biprofile_regrouping_check(n) -> bool:
    """Collecting the multiplicity-free splits of every index word by
    biprofile must yield each parking biprofile exactly once per class
    representative count, and the class set matches the enumeration."""
    seen = set()
    profiles = {}  # at n = 10: 8.06M lookups of 58,786 distinct words
    for pi in parking.enumerate_ndpf(n):
        for u, v in unparkized_terms(pi):
            for x in (u, v):
                if x not in profiles:
                    profiles[x] = parking.profile(x)
            seen.add((profiles[u], profiles[v]))
    return seen == set(parking.enumerate_parking_biprofiles(n))


# ---------------------------------------------------------------------------
# Commutative two-alphabet route (generating series of trees by branch
# edge counts)

# monomials are pairs (sorted u-subscripts, sorted v-subscripts), both
# weakly decreasing tuples of positive integers; coefficients count trees,
# so sums accumulate in place with no zero to drop


def _poly_mul_into(acc, a, b):
    """acc += a * b, in place."""
    for (ua, va), ca in a.items():
        for (ub, vb), cb in b.items():
            key = (
                tuple(sorted(ua + ub, reverse=True)),
                tuple(sorted(va + vb, reverse=True)),
            )
            acc[key] = acc.get(key, 0) + ca * cb
    return acc


def tree_series(N):
    """Degreewise solution of the coupled branch series: one series for
    trees with no right subtree at the root, one for no left subtree, and
    their product counting all trees by branch edge multisets."""
    one = {((), ()): 1}
    U = [one]
    V = [one]

    def power_component(series, p, d):
        # small degrees only, no memo needed
        if p == 0:
            return one if d == 0 else {}
        out = {}
        for e in range(d + 1):
            if e >= len(series):
                continue
            _poly_mul_into(out, series[e], power_component(series, p - 1, d - e))
        return out

    for d in range(1, N + 1):
        ud = {}
        vd = {}
        for m in range(1, d + 1):
            _poly_mul_into(ud, power_component(V, m, d - m), {((m,), ()): 1})
            _poly_mul_into(vd, power_component(U, m, d - m), {((), (m,)): 1})
        U.append(ud)
        V.append(vd)
    W = []
    for d in range(N + 1):
        wd = {}
        for e in range(d + 1):
            _poly_mul_into(wd, U[e], V[d - e])
        W.append(wd)
    return W


def delta_g_commutative(t):
    """Partition-level tally of a G(x)G coproduct such as
    delta_g_noncrossing(n): both legs of every index sorted."""
    return t.map_indices(lambda legs: [tuple(sorted(i, reverse=True)) for i in legs]).terms


def delta_g_commutative_via_trees(n):
    """Same tally from the degree-n component of the tree series."""
    return tree_series(n)[n]


# ---------------------------------------------------------------------------
# Structural checks


def cocommutativity_check(t) -> bool:
    """Whether a two-leg tensor such as Delta g_n is fixed by swapping its
    legs."""
    return t.permute((1, 0)) == t


def coassociativity_check(n) -> bool:
    """(Delta x id) Delta = (id x Delta) Delta on g_n, compared on the S-basis
    three-leg tensors."""
    t = s_coproduct(lagrange.g_component(n))
    return t.split_leg(0) == t.split_leg(1)
