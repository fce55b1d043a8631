"""The cache registry: every memo of the package is a `cached` function,
`clear_caches` empties them all, the shared series included, a degree bound
refuses a cache hit as it refuses a miss, and importing the CLI fills none
and loads no `fractions`."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nclag import algebra, cache, cli, compositions as comps, factorization, hopf, incidence
from nclag import lagrange, noncrossing, parking
from nclag.algebra import NSymElement, QSymElement, TensorElement

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nclag"

MEMOS = {
    "nclag.lagrange._series": lagrange._series,
    "nclag.lagrange.s_generator_on_g": lagrange.s_generator_on_g,
    "nclag.lagrange.antipode_g": lagrange.antipode_g,
    "nclag.hopf.delta_g_algebraic": hopf.delta_g_algebraic,
    "nclag.hopf.delta_g_biprofiles": hopf.delta_g_biprofiles,
    "nclag.hopf.delta_g_noncrossing": hopf.delta_g_noncrossing,
    "nclag.incidence.lattice_oracle": incidence.lattice_oracle,
    "nclag.incidence.multichain_count": incidence.multichain_count,
    "nclag.noncrossing._trees": noncrossing._trees,
    "nclag.parking.ndpf_count_of_type": parking.ndpf_count_of_type,
    "nclag.parking._parking_biprofiles": parking._parking_biprofiles,
    "nclag.factorization._run_table": factorization._run_table,
    "nclag.cli._shared_parser": cli._shared_parser,
}


def test_no_memo_outside_the_registry():
    pattern = re.compile(r"\blru_cache\b|functools\.cache\b|from functools import .*\bcache\b")
    found = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cache.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not found, "memos outside cache.py: " + ", ".join(found)


def test_registry_holds_every_memo():
    assert cache.REGISTRY == MEMOS
    for memo in MEMOS.values():
        assert memo.cache_info().maxsize is None


def _in_a_fresh_interpreter(script):
    """The JSON that `script` prints in a fresh interpreter, where no earlier
    test has filled a memo or imported a module."""
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_importing_the_cli_fills_no_memo():
    # every table is built on its first call, never at import
    script = (
        "import json, nclag.cli, nclag.cache; "
        "print(json.dumps({k: m.cache_info().currsize"
        " for k, m in nclag.cache.REGISTRY.items()}))"
    )
    assert _in_a_fresh_interpreter(script) == dict.fromkeys(MEMOS, 0)


def test_importing_the_cli_loads_no_fractions():
    # incidence imports fractions (and the decimal it loads) on first use,
    # so start-up does not pay for them
    script = (
        "import json, sys, nclag.cli; "
        "print(json.dumps(sorted({'fractions', 'decimal'} & set(sys.modules))))"
    )
    assert _in_a_fresh_interpreter(script) == []


def _fill():
    out = []
    for n in range(6):
        out += [
            lagrange.g_component(n),
            lagrange.gk_component(2, n),
            lagrange.antipode_g(n),
            hopf.delta_g_algebraic(n),
            hopf.delta_g_biprofiles(n),
            hopf.delta_g_noncrossing(n),
            noncrossing.enumerate_trees(n),
            lagrange.s_generator_on_g(n),
            parking.enumerate_parking_biprofiles(n),
            incidence.multichain_count(n, 2),
            factorization.factorization_tally((n + 1,)),
        ]
        for i in comps.all_compositions(n):
            out.append(parking.ndpf_count_of_type(i))
    lat = incidence.lattice_oracle(4)
    return out + [lat.mobius(lat.bottom, lat.top), cli._shared_parser().prog]


def test_clear_caches_empties_every_memo_and_both_series():
    before = _fill()
    assert all(memo.cache_info().currsize for memo in cache.REGISTRY.values())
    series = {k: lagrange._series(k) for k in (1, 2)}
    cache.clear_caches()
    assert [memo.cache_info().currsize for memo in cache.REGISTRY.values()] == [0] * len(MEMOS)
    # the next reader of g or of its k = 2 analogue starts a fresh series
    for k, old in series.items():
        fresh = lagrange._series(k)
        assert fresh is not old
        assert fresh.components == [lagrange._ONE]
        assert fresh._pw == {}
    # recomputed from nothing, every result is the same
    assert _fill() == before
    assert all(memo.cache_info().currsize for memo in cache.REGISTRY.values())


@pytest.mark.parametrize(
    "call",
    [
        lambda: lagrange.s_generator_on_g(6),
        # each S leg is converted through the guarded generator table
        lambda: algebra.convert(TensorElement.monomial(("S", "S"), (6,), (1,)), ("G", "G")),
        # the S -> G edge reads the guarded generator table part by part
        lambda: algebra.convert(NSymElement.monomial("S", (6, 1)), "G"),
        lambda: algebra.convert(QSymElement.monomial("C", (3, 3)), "M"),
        lambda: lagrange.antipode_g(6),
        lambda: hopf.delta_g_algebraic(6),
        # the M <-> C edges check the weight of every term
        lambda: algebra.convert(QSymElement.monomial("M", (3, 3)), "C"),
        lambda: algebra.convert(QSymElement("C", {(2,): 1, (3, 3): 2}), "M"),
    ],
)
def test_degree_bound_refuses_a_cache_hit(call, monkeypatch):
    before = call()
    assert call() == before  # the second call reads the memos
    monkeypatch.setenv("NCLAG_MAX_DEGREE", "4")
    with pytest.raises(ValueError, match="degree 6 exceeds the table bound 4"):
        call()
    monkeypatch.delenv("NCLAG_MAX_DEGREE")
    assert call() == before


@pytest.mark.parametrize(
    "memo, name, arg",
    [
        (lagrange.s_generator_on_g, "n", 5),
        (lagrange.antipode_g, "n", 5),
        (hopf.delta_g_algebraic, "n", 5),
    ],
)
def test_guarded_memo_takes_its_argument_by_keyword(memo, name, arg, monkeypatch):
    assert memo(**{name: arg}) == memo(arg)
    monkeypatch.setenv("NCLAG_MAX_DEGREE", "2")
    with pytest.raises(ValueError, match="exceeds the table bound 2"):
        memo(**{name: arg})
