"""Cached elements are shared and immutable by convention: every sum
accumulates into a fresh dict, never into the terms of an operand or of a
cached element.  These tests snapshot the caches, run every reader, and
check that nothing cached changed."""

import sys
import threading

from nclag import algebra, cache, compositions as comps, hopf, lagrange
from nclag.algebra import NSymElement, QSymElement, TensorElement

from test_lagrange import (
    f_basis_table_via_breakpoints,
    g_table,
    series_product_component,
    transition_matrix,
)

N = 6
QSYM_N = 4
CACHED = (
    lagrange.s_generator_on_g,
    lagrange.antipode_g,
    hopf.delta_g_algebraic,
    hopf.delta_g_biprofiles,
    hopf.delta_g_noncrossing,
)
# the whole-degree results, memoized per n
WHOLE_DEGREE = CACHED[-4:]


def _s_on_g(index):
    """S^I on the G basis, through the cached generator table."""
    return algebra.convert(NSymElement.monomial("S", index), "G")


def _fill_caches():
    for d in range(N + 1):
        lagrange.s_generator_on_g(d)
    lagrange.gk_component(2, N)
    for d in range(N + 1):
        for f in WHOLE_DEGREE:
            f(d)


def _cached_elements():
    out = [lagrange.g_component(d) for d in range(9)]
    for series in (lagrange._series(1), lagrange._series(2)):
        out += series.components + list(series._pw.values())
    for d in range(N + 1):
        out.append(lagrange.s_generator_on_g(d))
        out += [_s_on_g(i) for i in comps.all_compositions(d)]
    for d in range(N + 1):
        out += [f(d) for f in WHOLE_DEGREE]
    return out


def _run_readers():
    for d in range(1, N + 1):
        g = lagrange.g_component(d)
        for b in ("G", "L", "R", "F"):
            y = algebra.convert(g, b)
            assert algebra.convert(y, "S") == g
            assert algebra.convert(algebra.convert(y, "G"), b) == y
    for i in comps.all_compositions(QSYM_N):
        for b in ("M", "E", "V", "C"):
            x = QSymElement.monomial(b, i)
            assert algebra.convert(algebra.convert(x, "C"), b) == x
    a = [f(N) for f in (lagrange.antipode_g, lagrange.antipode_g_four_step, lagrange.antipode_g_formula)]
    assert a[0] == a[1] == a[2]
    t = [f(N) for f in (hopf.delta_g_algebraic, hopf.delta_g_biprofiles, hopf.delta_g_noncrossing)]
    assert t[0] == t[1] == t[2]
    for m in range(N // 2 + 1):
        routes = (lagrange.gk_component, lagrange.gk_component_iterative, lagrange.gk_component_via_phi)
        k = [f(2, m) for f in routes]
        assert k[0] == k[1] == k[2]
    inverse = lagrange.series_inverse(lagrange._neg_g_series(N)).components
    assert inverse == lagrange.free_cumulants(N).components
    assert inverse == lagrange.neg_g_inverse_fixed_point(N)
    inv = lagrange.series_inverse(g_table(N))
    assert series_product_component(inv, g_table(N), N).is_zero()
    for n in range(1, N + 1):
        assert lagrange.s_to_g_via_recipe(n) == lagrange.s_generator_on_g(n)
        assert lagrange.g_neg(n) == lagrange.g_neg_via_doubling(n)
        assert lagrange.gk_component_via_ndpf(1, n) == lagrange.g_component(n)
    assert transition_matrix("F", "S", 4) == f_basis_table_via_breakpoints(4)
    assert hopf.delta_g_monomial((2, 1)) == hopf.delta_g_algebraic(2) * hopf.delta_g_algebraic(1)


def test_readers_leave_cached_elements_unchanged():
    _fill_caches()
    before = [(x, dict(x.terms)) for x in _cached_elements()]
    _run_readers()
    _run_readers()
    assert all(x.terms == terms for x, terms in before)
    # the caches still hand out the same values
    assert [x.terms for x in _cached_elements()] == [terms for _, terms in before]
    assert all(f.cache_info().currsize for f in CACHED)


def test_sums_and_products_never_share_an_operands_terms():
    g3 = lagrange.g_component(3)
    pairs = [
        (g3, lagrange.g_component(3)),
        (g3, NSymElement.zero("S")),
        (NSymElement.zero("S"), g3),
        (g3, NSymElement.one("S")),
        (NSymElement.one("S"), g3),
        (lagrange.s_generator_on_g(3), NSymElement.one("G")),
        (NSymElement.monomial("R", (1, 2)), NSymElement.one("R")),
        (hopf.delta_g_algebraic(3), TensorElement.one(("G", "G"))),
    ]
    for a, b in pairs:
        before = dict(a.terms), dict(b.terms)
        for r in (a + b, a - b, a * b, -a):
            assert r.terms is not a.terms and r.terms is not b.terms
        assert (a.terms, b.terms) == before
    q = QSymElement.monomial("C", (2, 1))
    assert (q + QSymElement.zero("C")).terms is not q.terms


def test_threads_share_one_series_per_k():
    """Threads that solve the same fresh series at once get the very same
    components: one series per k, extended by one thread at a time."""
    cache.clear_caches()
    top = 7
    results = []
    ks = (1, 2, 3) * 4
    start = threading.Barrier(len(ks), timeout=60)

    def solve(k):
        start.wait()
        results.append((k, [lagrange.gk_component(k, d) for d in range(top + 1)]))

    threads = [threading.Thread(target=solve, args=(k,)) for k in ks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    for k, components in results:
        shared = lagrange._series(k).components
        assert len(shared) == top + 1
        assert all(x is y for x, y in zip(components, shared))
