"""The commutative reduced incidence Hopf algebra of noncrossing-partition
lattices: multiplicative functions as hat series, convolution, Moebius and
zeta powers, chain and multichain counts, and a brute-force lattice oracle.

A multiplicative function is determined by its hat coefficients (its values
on the complete generators); convolution is the plain product of hat
series, and values on the Lagrange generators come from the scalar
functional equation Phi = sum alpha_n t^n Phi^n.  That equation and its
inverse solve run on the degreewise engine of `lagrange`, with t^d written
as S_1^d: S_1 generates a polynomial ring inside NSym, so the NSym product
of such series is their product in t.
"""

from __future__ import annotations

import itertools
from math import comb

from . import lagrange, noncrossing
from .algebra import NSymElement
from .cache import cached


def _fraction(*args):
    """A Fraction, with `fractions` (and the `decimal` it loads) imported on
    first use rather than by every import of the package."""
    from fractions import Fraction

    return Fraction(*args)


class MultiplicativeFunction:
    """A character of the incidence Hopf algebra, stored by its hat series
    (exact rationals, constant term 1).  An integral hat value is kept as
    an int, so that zeta and Moebius powers solve on ints."""

    __slots__ = ("hat",)

    def __init__(self, hat):
        hat = [x.numerator if x.denominator == 1 else x for x in map(_fraction, hat)]
        if not hat or hat[0] != 1:
            raise ValueError("hat series must start with 1")
        self.hat = hat

    @property
    def max_degree(self):
        return len(self.hat) - 1

    def __eq__(self, other):
        return (
            isinstance(other, MultiplicativeFunction) and other.hat == self.hat
        )

    def __repr__(self):
        return f"MultiplicativeFunction({[str(x) for x in self.hat]})"


def _check_degree(N):
    if N < 0:
        raise ValueError("degree must be nonnegative")


def zeta(N) -> MultiplicativeFunction:
    _check_degree(N)
    # truncated expansion of 1 + t
    return MultiplicativeFunction([1 if n < 2 else 0 for n in range(N + 1)])


def identity_character(N) -> MultiplicativeFunction:
    _check_degree(N)
    return MultiplicativeFunction([1] + [0] * N)


def mobius(N) -> MultiplicativeFunction:
    _check_degree(N)
    # truncated expansion of 1/(1+t)
    return MultiplicativeFunction([(-1) ** n for n in range(N + 1)])


def convolve(phi, psi) -> MultiplicativeFunction:
    if phi.max_degree != psi.max_degree:
        raise ValueError("operands must share the degree bound")
    N = phi.max_degree
    hat = [
        sum(phi.hat[k] * psi.hat[d - k] for k in range(d + 1))
        for d in range(N + 1)
    ]
    return MultiplicativeFunction(hat)


def power(phi, k) -> MultiplicativeFunction:
    """The k-th convolution power of phi, by repeated squaring; the 0th is
    the identity."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    out = identity_character(phi.max_degree)
    while k:
        if k & 1:
            out = convolve(out, phi)
        k >>= 1
        if k:
            phi = convolve(phi, phi)
    return out


def zeta_power(k, N) -> MultiplicativeFunction:
    return power(zeta(N), k)


def _in_t(c):
    """sum_d c[d] t^d as the components c[d] S_1^d (see the module
    docstring)."""
    return [NSymElement.monomial("S", (1,) * d, x) for d, x in enumerate(c)]


def _t_coefficients(series):
    return [_fraction(x.coeff((1,) * d)) for d, x in enumerate(series.components)]


def g_values(phi):
    """Values on the Lagrange generators, solving the scalar functional
    equation degree by degree."""
    alpha = _in_t(phi.hat)
    return _t_coefficients(
        lagrange.solve_functional_equation(alpha.__getitem__, lambda n: n, phi.max_degree)
    )


def from_g_values(a) -> MultiplicativeFunction:
    """Recover the hat series from the generator values (inverse solve)."""
    a = [_fraction(x) for x in a]
    if not a or a[0] != 1:
        raise ValueError("generator values must start with 1")
    series = lagrange.GradedSeries(_in_t(a))
    return MultiplicativeFunction(
        _t_coefficients(lagrange.coefficients_of(series, lambda n: n, len(a) - 1))
    )


def zeta_power_value(k, n) -> int:
    """Closed form for the generator values of the k-th zeta power."""
    return comb(k * n + k, n) // (n + 1)


@cached
def multichain_count(n, k) -> int:
    """Weakly increasing k-tuples in the lattice one size larger; one more
    convolution factor than free elements."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be >= 1")
    v = g_values(zeta_power(k + 1, n))[n]
    if v.denominator != 1:
        raise ArithmeticError(f"multichain count {v} is not an integer")
    return int(v)


def chain_count(n_plus_1, s) -> int:
    """Strict chains from bottom to top with prescribed rank jumps."""
    n = n_plus_1 - 1
    s = tuple(s)
    if any(x < 1 for x in s) or sum(s) != n:
        raise ValueError("rank jumps must be positive and sum to the rank")
    v = _fraction(1, n + 1)
    for x in s:
        v *= comb(n + 1, x)
    if v.denominator != 1:
        raise ArithmeticError(f"chain count {v} is not an integer")
    return int(v)


def biane_count(n, orders) -> int:
    """Minimal factorizations of a full cycle into cycles of the given
    orders: a power of n when the lengths are minimal, zero otherwise."""
    if n < 1:
        raise ValueError("n must be at least 1")
    orders = tuple(orders)
    if any(a < 2 for a in orders):
        raise ValueError("cycle orders must be at least 2")
    if sum(a - 1 for a in orders) != n - 1:
        return 0
    # no orders: the full cycle of 1 is the identity, the empty product
    return n ** (len(orders) - 1) if orders else 1


# ---------------------------------------------------------------------------
# Brute-force lattice oracle


def _bits(mask):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class NCLattice:
    """The refinement order on noncrossing partitions of 1..n, computed by
    definition; ground truth for the series formulas above.

    The order is built once: ``elements`` lists the partitions by rank,
    ``index`` maps each to its position, and ``up[i]`` has bit j set when
    elements[i] <= elements[j], that is, when every block of elements[i]
    lies inside a block of elements[j].
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("lattice oracle needs n >= 1")
        lagrange._check_bound(n)
        self.n = n
        self.elements = sorted(noncrossing.enumerate_nc(n), key=self.rank)
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.bottom = noncrossing.NoncrossingPartition.singletons(n)
        self.top = noncrossing.NoncrossingPartition.one_block(n)
        # together[a, e]: the elements in which a and e share a block
        together = {}
        for i, q in enumerate(self.elements):
            for block in q.blocks:
                for a, e in itertools.combinations(block, 2):
                    together[a, e] = together.get((a, e), 0) | 1 << i
        # p <= q iff each block of p lies in one block of q, that is, iff
        # q joins the least element of each block of p to the others
        everything = (1 << len(self.elements)) - 1
        self.up = []
        for p in self.elements:
            mask = everything
            for block in p.blocks:
                for e in block[1:]:
                    mask &= together.get((block[0], e), 0)
            self.up.append(mask)
        self._rank_mask = [0] * n
        for i, p in enumerate(self.elements):
            self._rank_mask[self.rank(p)] |= 1 << i
        self._mob = {}

    def leq(self, p, q) -> bool:
        return bool(self.up[self.index[p]] >> self.index[q] & 1)

    def rank(self, p) -> int:
        return self.n - len(p.blocks)

    def interval(self, p, q):
        qi = self.index[q]
        return [
            self.elements[j]
            for j in _bits(self.up[self.index[p]])
            if self.up[j] >> qi & 1
        ]

    def _mobius_row(self, i):
        """mu(elements[i], elements[j]) for every j above i: one pass up
        the ranks, each value pushed to everything above it."""
        if i not in self._mob:
            row = {}
            # pending[r]: sum of mu(p, s) over the s in [p, r) done so far,
            # seeded so that mu(p, p) = 1
            pending = {i: -1}
            for j in _bits(self.up[i]):
                row[j] = value = -pending.pop(j)
                for r in _bits(self.up[j] ^ 1 << j):
                    pending[r] = pending.get(r, 0) + value
            self._mob[i] = row
        return self._mob[i]

    def mobius(self, p, q) -> int:
        return self._mobius_row(self.index[p]).get(self.index[q], 0)

    def count_chains(self, s) -> int:
        """Strict chains bottom < p_1 < ... < p_r < top with rank jumps s
        (the last jump reaches the top)."""
        s = tuple(s)
        if sum(s) != self.n - 1:
            raise ValueError("rank jumps must sum to the lattice rank")
        ways = {self.index[self.bottom]: 1}
        for jump in s[:-1]:
            nxt = {}
            for i, c in ways.items():
                target = self.rank(self.elements[i]) + jump
                if not 0 <= target < self.n:
                    continue
                for j in _bits(self.up[i] & self._rank_mask[target] & ~(1 << i)):
                    nxt[j] = nxt.get(j, 0) + c
            ways = nxt
        return sum(ways.values())

    def count_multichains(self, k) -> int:
        """Weakly increasing k-tuples."""
        if k < 1:
            raise ValueError("k must be >= 1")
        # ways[i]: weakly increasing tuples of the current length from i up
        ways = [1] * len(self.elements)
        for _ in range(k - 1):
            ways = [sum(ways[j] for j in _bits(mask)) for mask in self.up]
        return sum(ways)


@cached(guard=lagrange._check_bound)
def lattice_oracle(n) -> NCLattice:
    return NCLattice(n)
