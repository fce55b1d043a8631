"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of the ``nclag`` modules from
outside the package, records one span per call in memory (id, parent, name,
start, end), and keeps per-name self time: a span's duration minus the time
covered by its child spans.  Recursion needs no special case, because a
recursive call is a child span of the call that made it.  Hot predicates
such as ``NCLattice.leq`` are only counted, since a span per call would cost
more than the call.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from nclag import (
    algebra,
    cli,
    factorization,
    hopf,
    incidence,
    lagrange,
    noncrossing,
    parking,
)

# (owner, attribute, span name); the owner is a module or a class.
SPANNED = [
    (algebra.NSymElement, "__add__", "algebra.add"),
    (algebra.NSymElement, "__mul__", "algebra.mul"),
    (algebra, "convert", "algebra.convert"),
    (lagrange, "g_component", "lagrange.g_component"),
    (lagrange, "gk_component", "lagrange.gk_component"),
    (lagrange, "gk_component_iterative", "lagrange.gk_component_iterative"),
    (lagrange, "gk_component_via_phi", "lagrange.gk_component_via_phi"),
    (lagrange, "antipode_g", "lagrange.antipode_g"),
    (lagrange, "antipode_g_four_step", "lagrange.antipode_g_four_step"),
    (lagrange, "antipode_g_formula", "lagrange.antipode_g_formula"),
    (hopf, "delta_g_algebraic", "hopf.delta_g_algebraic"),
    (hopf, "delta_g_biprofiles", "hopf.delta_g_biprofiles"),
    (hopf, "delta_g_noncrossing", "hopf.delta_g_noncrossing"),
    (parking, "enumerate_parking_biprofiles", "parking.enumerate_parking_biprofiles"),
    (noncrossing, "enumerate_nc", "noncrossing.enumerate_nc"),
    (noncrossing, "kreweras", "noncrossing.kreweras"),
    (noncrossing, "rebuild_tree", "noncrossing.rebuild_tree"),
    (factorization, "minimal_factorizations", "factorization.minimal_factorizations"),
    (incidence.NCLattice, "mobius", "incidence.NCLattice.mobius"),
    (incidence, "lattice_oracle", "incidence.lattice_oracle"),
    (incidence, "g_values", "incidence.g_values"),
    (cli, "build_parser", "cli.build_parser"),
] + [
    # build_parser binds the cmd_* globals at call time, so wrapping them
    # here reaches every subcommand dispatched by cli.main.
    (cli, name, f"cli.{name}")
    for name in sorted(vars(cli))
    if name.startswith("cmd_")
]

# Span names whose self time is reported as one sum.
GROUPS = {
    "lagrange.kanalogue_routes": (
        "lagrange.gk_component",
        "lagrange.gk_component_iterative",
        "lagrange.gk_component_via_phi",
    ),
    "lagrange.antipode_routes": (
        "lagrange.antipode_g",
        "lagrange.antipode_g_four_step",
        "lagrange.antipode_g_formula",
    ),
    "cli.cmd": tuple(name for _, _, name in SPANNED if name.startswith("cli.cmd_")),
}

CACHED = {
    "lagrange.s_monomial_on_g": (lagrange, "s_monomial_on_g"),
    "lagrange.g_monomial_on_s": (lagrange, "g_monomial_on_s"),
    "lagrange.s_generator_on_g": (lagrange, "s_generator_on_g"),
    "parking.ndpf_count_of_type": (parking, "ndpf_count_of_type"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.missing = []
        self._stack = []  # [child time so far, span id]
        self._originals = []

    # -- installing and removing wrappers ---------------------------------

    def _patch(self, owner, attr, make):
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._originals.append((owner, attr, own, original))
        setattr(owner, attr, make(original))

    def install(self):
        for owner, attr, name in SPANNED:
            on_result = None
            if name == "factorization.minimal_factorizations":
                on_result = self._count_found
            self._patch(owner, attr, lambda fn, n=name, h=on_result: self._span(n, fn, h))
        self._patch(
            factorization,
            "permutations_of_reduced_type",
            lambda fn: self._counted_generator("factorization.alpha_candidates", fn),
        )
        self._patch(
            incidence.NCLattice,
            "leq",
            lambda fn: self._counted("incidence.NCLattice.leq.calls", fn),
        )

    def restore(self):
        for owner, attr, own, original in reversed(self._originals):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._originals.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_result):
        clock = time.perf_counter
        spans, stack = self.spans, self._stack
        self_time, calls = self.self_time, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                spans[sid] = (sid, parent, name, start, end)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_found(self, result):
        self.counts["factorization.found"] += len(result)

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_generator(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[key] += n

        return wrapper

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of this process (suite times come from the
        verify report and the overhead from the parent; both are added by
        the caller)."""
        st, calls, counts = self.self_time, self.calls, self.counts
        m = {}

        def both(metric, span):
            m[f"{metric}.s"] = st[span]
            m[f"{metric}.calls"] = calls[span]

        both("algebra.add", "algebra.add")
        both("algebra.mul", "algebra.mul")
        both("algebra.convert", "algebra.convert")
        m["lagrange.g_component.s"] = st["lagrange.g_component"]
        for group, names in GROUPS.items():
            m[f"{group}.s"] = sum(st[n] for n in names)
        for metric, (module, attr) in CACHED.items():
            info_fn = getattr(getattr(module, attr, None), "cache_info", None)
            if info_fn is None:
                self.missing.append(f"{metric}.cache_info")
                hits = misses = size = 0
            else:
                info = info_fn()
                hits, misses, size = info.hits, info.misses, info.currsize
            m[f"{metric}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            m[f"{metric}.currsize"] = size
        for name in (
            "hopf.delta_g_algebraic",
            "hopf.delta_g_biprofiles",
            "hopf.delta_g_noncrossing",
            "parking.enumerate_parking_biprofiles",
            "incidence.NCLattice.mobius",
            "incidence.lattice_oracle",
            "incidence.g_values",
        ):
            m[f"{name}.s"] = st[name]
        for name in (
            "noncrossing.enumerate_nc",
            "noncrossing.kreweras",
            "noncrossing.rebuild_tree",
            "factorization.minimal_factorizations",
            "cli.build_parser",
        ):
            both(name, name)
        candidates = counts["factorization.alpha_candidates"]
        m["factorization.alpha_candidates"] = candidates
        m["factorization.found"] = counts["factorization.found"]
        m["factorization.useful_ratio"] = (
            counts["factorization.found"] / candidates if candidates else 0.0
        )
        m["incidence.NCLattice.leq.calls"] = counts["incidence.NCLattice.leq.calls"]
        return m

    def dump(self, path, extra):
        """Write every span and counter, plus ``extra``, as one JSON file."""
        payload = {
            "spans": {
                "fields": ["id", "parent", "name", "start", "end"],
                "rows": self.spans,
            },
            "self_time_s": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "missing": self.missing,
            **extra,
        }
        with open(path, "w") as f:
            json.dump(payload, f)
