"""Degreewise solvers for the noncommutative Lagrange functional equation
and the transition tables between the S and G bases.

The central object is the series g = 1 + sum_n S_n g^n, computed degree by
degree with exact integer coefficients.  Everything else here is derived
from it: the k-analogue series, free cumulants, the inverse series, the
negated-alphabet expansion and the antipode on the G basis, each with the
independent computation routes used for cross-checking.

One engine, `GradedSeries`, serves every degreewise series: g, its
k-analogues and any X = 1 + sum_n a_n X^r(n) with a_n homogeneous of
degree n.  It memoizes the components (X^p)_e of the powers and fills them
through

    (X^p)_e = (X^(p-1))_e + sum_{n=1}^{e} a_n (X^(r(n)+p-1))_(e-n),

since X^p = X X^(p-1) = (1 + sum_n a_n X^r(n)) X^(p-1); then X_d = (X^1)_d.
Each entry is one copy of the entry below it plus one pass over a_n times
lower-degree entries, not a convolution of X with X^(p-1).

A given series is the case a_n = X_n, r = 0; the inverse series solves
Y = 1 + sum_n (-X_n) Y; the inverse solve `coefficients_of` reads the a_n
back off a series (the free cumulants off sigma, with r(n) = n); and the
scalar series of `incidence` run on the same engine.  The engine knows no
basis: it multiplies by the concatenation product of its unit's class, so
the coupled tree series of `hopf.delta_g_trees` run on it on G (x) G.
"""

from __future__ import annotations

import os
import threading
from collections import Counter

from . import algebra, compositions as comps, parking
from .algebra import NSymElement
from .cache import cached


def max_degree() -> int:
    """Bound on basis-transition tables (override with NCLAG_MAX_DEGREE)."""
    return int(os.environ.get("NCLAG_MAX_DEGREE", "10"))


def _check_bound(n):
    if n > max_degree():
        raise ValueError(
            f"degree {n} exceeds the table bound {max_degree()} "
            "(raise NCLAG_MAX_DEGREE to extend)"
        )


_ONE = NSymElement.one("S")


class GradedSeries:
    """X = 1 + sum_n coeffs(n) X^rule(n), stored as its components and the
    memoized components (X^p)_e of its powers (see the module docstring);
    without `coeffs` and `rule`, the given series with coeffs(n) = X_n and
    rule(n) = 0.  The components are elements of one class and basis whose
    product concatenates indices, such as NSym on S or tensors on G (x) G,
    and components[0] is the unit of that basis."""

    __slots__ = ("components", "_pw", "_coeffs", "_rule")

    def __init__(self, components, coeffs=None, rule=None):
        self.components = list(components)
        unit = self.components[0] if self.components else None
        if unit is None or unit != type(unit).one(unit.basis):
            raise ValueError("constant term must be the unit")
        legs = unit.basis if isinstance(unit.basis, tuple) else (unit.basis,)
        if not algebra._MULTIPLICATIVE.issuperset(legs):
            raise algebra.BasisMismatch(f"no concatenation product on {unit.basis!r}")
        for d, c in enumerate(self.components):
            unit._check(c)
            if not c.is_homogeneous(d):
                raise ValueError(f"component {d} is not homogeneous of degree {d}")
        self._pw = {}
        self._coeffs = self.components.__getitem__ if coeffs is None else coeffs
        self._rule = (lambda n: 0) if rule is None else rule

    @property
    def max_degree(self):
        return len(self.components) - 1

    def component(self, d):
        if d < 0:
            raise ValueError("degree must be nonnegative")
        if d >= len(self.components):
            raise ValueError(f"series only computed up to degree {self.max_degree}")
        return self.components[d]

    def power_component(self, p, d):
        """Degree-d component of the p-th power (memoized).  The powers of
        degree d are filled in one loop over p, so the recursion descends
        only in degree: its depth is at most d."""
        unit = self.components[0]
        if d == 0:
            return unit
        if p <= 1:
            return self.component(d) if p else type(unit).zero(unit.basis)
        pw = self._pw
        if (p, d) not in pw:
            q = p - 1
            while q > 1 and (q, d) not in pw:
                q -= 1
            for q in range(q + 1, p + 1):
                pw[q, d] = self._step(q, d, self.power_component(q - 1, d).terms)
        return pw[p, d]

    def _step(self, p, e, prev):
        """(X^p)_e = (X^(p-1))_e + sum_n a_n (X^(r(n)+p-1))_(e-n), the first
        term given by its terms `prev`."""
        rule, power = self._rule, self.power_component
        return _sum_of_products(
            range(1, e + 1),
            self._coeffs,
            lambda n: power(rule(n) + p - 1, e - n),
            unit=self.components[0],
            acc=dict(prev),
        )

    def extend(self, N):
        """Solve for the components up to degree N: X_d = (X^1)_d, whose
        right-hand side only involves components below d."""
        xs = self.components
        for d in range(len(xs), N + 1):
            xs.append(self._step(1, d, {}))

    def __eq__(self, other):
        return (
            isinstance(other, GradedSeries)
            and other.components == self.components
        )

    def __repr__(self):
        lines = [f"[{d}] {c!r}" for d, c in enumerate(self.components)]
        return "\n".join(lines)


def _sum_of_products(indices, left, right, c=1, *, unit, acc):
    """acc + c * sum over e in indices of left(e) * right(e), in the class
    and basis of `unit` and by its concatenation product, accumulated into
    `acc`, a fresh dict of the caller's, which the result then owns;
    right(e) is only computed where left(e) is nonzero."""
    cls = type(unit)
    for e in indices:
        x = left(e)
        if x.terms:
            y = right(e)
            if y.terms:
                cls._concat_into(acc, x.terms, y.terms, c)
    return cls._adopt(unit.basis, acc)


def solve_functional_equation(coeffs, power_rule, N) -> GradedSeries:
    """Solve X = 1 + sum_{n>=1} coeffs(n) X^power_rule(n) degree by degree
    up to N.

    `coeffs(n)` must be homogeneous of degree n and `power_rule(n)`
    nonnegative.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    series = GradedSeries([_ONE], coeffs, power_rule)
    series.extend(N)
    return series


def coefficients_of(series, rule, N) -> GradedSeries:
    """The inverse solve: the a_n, n <= N, with series = 1 + sum_n a_n
    series^rule(n), from a_d = X_d - sum_{n<d} a_n (X^rule(n))_(d-n)."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    a = [series.component(0)]
    for d in range(1, N + 1):
        a.append(
            _sum_of_products(
                range(1, d),
                a.__getitem__,
                lambda n: series.power_component(rule(n), d - n),
                c=-1,
                unit=series.component(0),
                acc=dict(series.component(d).terms),
            )
        )
    return GradedSeries(a)


def _s_generator(n):
    return NSymElement.monomial("S", (n,))


# ---------------------------------------------------------------------------
# The g series and its k-analogues (shared caches, exclusive extension)

_cache_lock = threading.Lock()


@cached
def _series(k):
    """The shared k-analogue series (k = 1 is g), only ever read and
    extended under `_cache_lock`, so that two threads never extend two
    different series."""
    return GradedSeries([_ONE], _s_generator, lambda m: k * m)


def _shared_component(k, n):
    """Degree-n component of the shared k-analogue series, extended under
    the lock when it is too short."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    with _cache_lock:
        series = _series(k)
        series.extend(n)
        return series.components[n]


def g_component(n) -> NSymElement:
    """Degree-n component of g on the S basis."""
    return _shared_component(1, n)


def gk_component(k, n) -> NSymElement:
    """Degree-n component of the k-analogue series (k=1 recovers g)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _shared_component(k, n)


def gk_component_iterative(k, n) -> NSymElement:
    """Same component via iteration: feed the (k-1)-series in as coefficients."""
    if k == 1:
        return g_component(n)
    series = solve_functional_equation(
        lambda m: gk_component(k - 1, m), lambda m: m, n
    )
    return series.component(n)


def gk_component_via_phi(k, n) -> NSymElement:
    """Same component as the divisible-part projection of g in degree kn,
    phi_k(g_kn): the coefficient of S^J is that of S^(kJ) in g_kn.  Only the
    2^(n-1) indices kJ, J a composition of n, have every part divisible by
    k, so each is looked up instead of filtering all 2^(kn-1) terms."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gkn = g_component(k * n).terms
    terms = {}
    for j in comps.all_compositions(n):
        c = gkn.get(tuple(k * p for p in j))
        if c:
            terms[j] = c
    return NSymElement("S", terms)


def gk_component_via_ndpf(k, n) -> NSymElement:
    """Same component as the tally of the nondecreasing k-parking functions
    of length n by their types."""
    tally = Counter(parking.type_of(w) for w in parking.enumerate_k_ndpf(n, k))
    return NSymElement("S", tally)


# ---------------------------------------------------------------------------
# Inverse series and free cumulants


def series_inverse(s: GradedSeries) -> GradedSeries:
    """The multiplicative inverse: the solution of Y = 1 + sum_n (-X_n) Y."""
    negated = [-x for x in s.components]
    return solve_functional_equation(negated.__getitem__, lambda n: 1, s.max_degree)


def sigma_series(N) -> GradedSeries:
    """The full sum of complete generators, 1 + S_1 + S_2 + ..."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return GradedSeries([_ONE] + [_s_generator(n) for n in range(1, N + 1)])


def free_cumulants(N) -> GradedSeries:
    """The cumulant components solving sigma = sum_n K_n sigma^n."""
    return coefficients_of(sigma_series(N), lambda n: n, N)


def _neg_g_series(N) -> GradedSeries:
    """g(-A), the negated-alphabet g series, up to degree N."""
    return GradedSeries([algebra.neg_alphabet(g_component(d)) for d in range(N + 1)])


def neg_g_inverse_fixed_point(N) -> list:
    """The components up to N of sum_n S_n g(-A)^n, which is the inverse of
    g(-A) (and the free cumulant series) by the fixed point."""
    neg = _neg_g_series(N)
    return [
        _sum_of_products(
            range(1, d + 1),
            _s_generator,
            lambda n: neg.power_component(n, d - n),
            unit=_ONE,
            acc={} if d else {(): 1},
        )
        for d in range(N + 1)
    ]


# ---------------------------------------------------------------------------
# S <-> G transitions


@cached(guard=_check_bound)
def s_generator_on_g(n) -> NSymElement:
    """Expansion of S_n on the G basis, by peeling the leading term of g_n:
    S_n = g_n - (the other terms of g_n, whose parts are all below n), the
    latter expanded by the S -> G pass over the generators below n."""
    if n == 0:
        return NSymElement.one("G")
    rest = {j: -c for j, c in g_component(n).terms.items() if j != (n,)}
    acc = algebra._products_into({(n,): 1}, rest, lambda p: s_generator_on_g(p).terms)
    return NSymElement("G", acc)


def s_to_g_via_recipe(n) -> NSymElement:
    """S_n on the G basis by substitution into the elementary expansion of
    the previous component: each L-monomial with first part a becomes the
    difference of the monomials (a+1, rest) and (1, a, rest), with an
    overall sign fixing the parity (the substitution alone flips odd
    degrees)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return NSymElement.monomial("G", (1,))
    gl = algebra.convert(g_component(n - 1), "L")
    acc = {}
    for i, c in gl.terms.items():
        algebra._add_into(acc, {(i[0] + 1,) + i[1:]: c, (1,) + i: -c}, (-1) ** n)
    return NSymElement("G", acc)


# ---------------------------------------------------------------------------
# The negated alphabet on the G basis (four routes)


def g_neg(n) -> NSymElement:
    """g_n at the negated alphabet, expanded on the G basis."""
    _check_bound(n)
    return algebra.convert(algebra.neg_alphabet(g_component(n)), "G")


def _coarsening_count(comp):
    """Nondecreasing parking functions whose type coarsens `comp`."""
    return sum(parking.ndpf_count_of_type(j) for j in comps.coarsenings(comp))


def g_neg_via_pairing(n) -> NSymElement:
    """Coefficient route: up to sign, the coefficient of a G-monomial is the
    doubled-index essential pairing with the degree-2n component of g."""
    terms = {}
    for i in comps.all_compositions(n):
        a = _coarsening_count(comps.double(i))
        terms[i] = (-1) ** len(i) * a
    return NSymElement("G", terms)


def g_neg_via_counting(n) -> NSymElement:
    """Counting route: the unsigned coefficient counts nondecreasing parking
    functions whose type doubles each part and adds one."""
    terms = {}
    for i in comps.all_compositions(n):
        a = parking.ndpf_count_of_type(tuple(2 * p + 1 for p in i))
        terms[i] = (-1) ** len(i) * a
    return NSymElement("G", terms)


def g_neg_via_doubling(n) -> NSymElement:
    """Involution route: (-1)^n times the tilde image of the k=2 component."""
    return algebra.tilde(gk_component(2, n)).scale((-1) ** n)


def g_neg_s_via_counting(n) -> NSymElement:
    """g_n at the negated alphabet on the S basis, from shifting every part
    up by one: lambda_I = (-1)^{l(I)} delta_{I + 1^r}."""
    terms = {}
    for i in comps.all_compositions(n):
        terms[i] = (-1) ** len(i) * parking.ndpf_count_of_type(comps.plus_ones(i))
    return NSymElement("S", terms)


# ---------------------------------------------------------------------------
# The antipode of g on the G basis (three routes)


@cached(guard=_check_bound)
def antipode_g(n) -> NSymElement:
    """Antipode of g_n expanded on the G basis (generic Hopf route)."""
    return algebra.convert(algebra.antipode(g_component(n)), "G")


def antipode_g_four_step(n) -> NSymElement:
    """Four-step route: k=2 component on G, reverse the indices and attach
    the sign, expand on L, retag through the tilde involution."""
    x = algebra.convert(gk_component(2, n), "G")
    x = algebra.chi(x).scale((-1) ** n)
    return algebra.tilde(x)


def v_pairing(i_comp, j_comp) -> int:
    """Pairing of the signed essential V_I with a G-basis monomial g^J.

    Nonzero only when I splits at part boundaries into consecutive blocks
    of weights j_1, ..., j_r; the value then factors over the blocks.
    """
    return _v_pairing(i_comp, j_comp, _coarsening_count)


def _v_pairing(i_comp, j_comp, count) -> int:
    """`v_pairing`, with `count(block)` giving each block's coarsening count."""
    if sum(i_comp) != sum(j_comp):
        return 0
    blocks = []
    it = iter(i_comp)
    for target in j_comp:
        block, acc = [], 0
        while acc < target:
            try:
                p = next(it)
            except StopIteration:
                return 0
            block.append(p)
            acc += p
        if acc != target:
            return 0
        blocks.append(tuple(block))
    value = 1
    for block, m in zip(blocks, j_comp):
        value *= (-1) ** (m - len(block)) * count(block)
    return value


def antipode_g_formula(n) -> NSymElement:
    """Cancellation-free route: the coefficient of g^I is (-1)^n times the
    sum over J of v_pairing(I, J) times the number of nondecreasing parking
    functions of type mirror(J).  v_pairing(I, J) is zero unless J is
    coarser than I, so J runs over the coarsenings of I only: 3^(n-1)
    pairs in all, not 4^(n-1).  Their blocks repeat (7,290 block counts
    on 255 distinct blocks at n = 8), so each is counted once per call."""
    counts = {}

    def count(block):
        if block not in counts:
            counts[block] = _coarsening_count(block)
        return counts[block]

    terms = {}
    for i in comps.all_compositions(n):
        total = 0
        for j in comps.coarsenings(i):
            vp = _v_pairing(i, j, count)
            if vp:
                total += vp * parking.ndpf_count_of_type(comps.mirror(j))
        terms[i] = (-1) ** n * total
    return NSymElement("G", terms)
