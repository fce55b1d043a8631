"""Coproduct of the Lagrange series components on the G(x)G basis,
computed by four routes, plus the word-level coproduct that justifies the
biprofile route and the commutative image of a coproduct.
"""

from __future__ import annotations

from collections import Counter

from . import algebra, compositions as comps, lagrange, noncrossing, parking
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
    Kreweras complement on the right.  Each partition is built and checked
    once; each complement is walked, not checked again, and looked up
    among them by its blocks.  K permutes NC(n + 1), so a complement that
    is not among them, or is met twice, raises ArithmeticError."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    parts = noncrossing.enumerate_nc(n + 1)
    types = [p.reduced_ordered_type() for p in parts]
    unmet = {p.blocks: t for p, t in zip(parts, types)}

    def complement_type(p):
        blocks = noncrossing._kreweras_walk(p)[0]
        t = unmet.pop(blocks, None)
        if t is None:
            known = any(q.blocks == blocks for q in parts)
            raise ArithmeticError(
                f"the Kreweras complement of {noncrossing.to_text(p)} is "
                + ("met twice" if known else f"not in NC({n + 1})")
            )
        return t

    return TensorElement(("G", "G"), Counter(zip(types, map(complement_type, parts))))


def delta_g_trees(n) -> TensorElement:
    """Coproduct of g_n from the coupled tree series on G(x)G,
    Z = 1 + sum_m (G_m (x) 1) X^m and X = 1 + sum_m (1 (x) G_m) Z^m,
    solved degree by degree through the engine of `lagrange`: Delta g_n is
    [Z X]_n.  Cutting a noncrossing partition of n + 1 at the block of 1
    gives the reading: Z_(s-1) tallies the partitions of s with 1 and s in
    one block, X_(s-1) those in which {1} is a block.  The system is
    symmetric under swapping the legs and its solution is unique, so X is
    Z with its legs swapped, and only Z's powers are kept."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    lagrange._check_bound(n)
    gg = ("G", "G")
    one = TensorElement.one(gg)
    z = lagrange.GradedSeries([one])

    def x_power(m, e):
        # (X^m)_e: (Z^m)_e with its legs swapped
        return z.power_component(m, e).permute((1, 0))

    for d in range(1, n + 1):
        z.components.append(
            lagrange._sum_of_products(
                range(1, d + 1),
                lambda m: TensorElement.monomial(gg, (m,), ()),
                lambda m: x_power(m, d - m),
                unit=one,
                acc={},
            )
        )
    return lagrange._sum_of_products(
        range(n + 1), z.component, lambda e: x_power(1, n - e), unit=one, acc={}
    )


def delta_g_monomial(index) -> TensorElement:
    """Coproduct of a G-basis monomial (multiplicative extension), with one
    coproduct per distinct part."""
    if not comps.is_composition(index):
        raise ValueError("index must be a composition")
    factors = {p: delta_g_algebraic(p) for p in set(index)}
    out = TensorElement.one(("G", "G"))
    for p in index:
        out = out * factors[p]
    return out


def delta_g_commutative(t):
    """Partition-level tally of a G(x)G coproduct such as
    delta_g_noncrossing(n): both legs of every index sorted."""
    return t.map_indices(lambda legs: [tuple(sorted(i, reverse=True)) for i in legs]).terms


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


def split_biprofile_tally(n) -> dict:
    """The multiplicity-free splits (u, v) of every index word of size n,
    tallied by biprofile (profile of u, profile of v), without visiting a
    split.

    One dynamic program over the letters x = 1..n: a state (t letters
    placed, profile of u, profile of v) counts its splits.  Letter x gets
    a multiplicity m with t + m >= x, the parking condition, and t ends
    at n; k of the m copies go to u and m - k to v, each profile extended
    by the greedy step `parking._extend_profile`, memoized per run on
    (profile, x, k).  u ∪ v is an index word exactly when the biprofile
    is a parking biprofile (P, Q), which then occurs Π Cat(c_i) · Π Cat(d_j)
    times: the words of one profile are the shifted index words of its
    biletters.  The total is C(3n+1, n)/(n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    steps = {}

    def extend(p, x, k):
        if not k:
            return p
        key = p, x, k
        if key not in steps:
            steps[key] = parking._extend_profile(p, x, k)
        return steps[key]

    empty = ((), ())
    layer = {(0, empty, empty): 1}
    for x in range(1, n + 1):
        following = {}
        for (t, u, v), ways in layer.items():
            for m in range(max(0, x - t), n - t + 1):
                for k in range(m + 1):
                    state = t + m, extend(u, x, k), extend(v, x, m - k)
                    following[state] = following.get(state, 0) + ways
        layer = following
    return {(u, v): ways for (_, u, v), ways in layer.items()}
