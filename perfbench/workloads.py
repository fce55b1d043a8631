"""The benchmark's workloads, one pass each, as run inside a child process.

Each workload makes its inputs, runs its timed section inside a
``Section`` (which installs and removes the tracer in a traced child, and
samples the machine's speed with a ``Probe`` in an untraced one), then
checks its outputs outside the timed section.  It returns each
operation's time (and, untraced, its time scaled to the probe's nominal
speed) and the number of checks attempted and failed.  The operations of a
pass are the same, in the same order, in every pass of a run, so that the
parent can compare each operation across the passes.  ``first`` is false
for the later passes of a run: the query workload then skips its costly
re-derivations, and the parent compares the digests of its answers with
the first pass's.  The other workloads' checks are cheap, so every pass
runs them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import time

import queries
from nclag import algebra, cli, hopf, lagrange
from probe import Probe

# verify --suite all case counts at this commit: a different count means the
# workload changed, which the check reports.
VERIFY_CASES = {6: 278, 3: 150}


class Section:
    """Times one timed section and reads the peak RSS at its end, before the
    checks run.  A traced child traces inside it; an untraced one samples
    the machine's speed with a ``Probe``."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.probe = None if tracer else Probe()
        self.start = self.end = None
        self.wall = None
        self.peak_rss_mb = None

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
        else:
            self.probe.__enter__()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.wall = self.end - self.start
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.tracer is not None:
            self.tracer.restore()
        else:
            self.probe.__exit__(*exc)
        return False

    def result(self, spans, checks, **extra):
        """The pass's result: each operation's time in ms (without the
        probe's samples) and, untraced, scaled to the nominal speed."""
        if self.probe is None:
            op_ms = [(b - a) * 1e3 for a, b in spans]
            scaled = kernel_ms = None
        else:
            op_ms, scaled = self.probe.scale(spans)
            kernel_ms = [d * 1e3 for d in self.probe.durations]
        return {
            "kernel_ms": kernel_ms,
            "wall_s": self.wall,
            "peak_rss_mb": self.peak_rss_mb,
            "op_ms": op_ms,
            "op_scaled_ms": scaled,
            "checks": checks,
            **extra,
        }


def _cli(argv):
    """Run ``nclag --json <argv>`` in this interpreter; (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["--json"] + argv)
    return rc, buf.getvalue()


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(label)


def verify(seed, smoke, tracer, first):
    """``nclag --json verify --suite all --max-n 6``.  The input is this one
    fixed call, so the seed changes nothing.  An operation is one case of a
    suite: the time from the previous case (or the start of the call) until
    the suite yields it; the rest of the call after the last case, which
    writes the report, is one more operation."""
    max_n = 3 if smoke else 6
    marks = []
    clock = time.perf_counter

    def marked(suite):
        def cases(n):
            for case in suite(n):
                marks.append(clock())
                yield case

        return cases

    suites = dict(cli.SUITES)
    cli.SUITES.update({name: marked(fn) for name, fn in suites.items()})
    try:
        with Section(tracer) as s:
            rc, out = _cli(["verify", "--suite", "all", "--max-n", str(max_n)])
    finally:
        cli.SUITES.update(suites)
    checks = Checks()
    checks.add("exit code 0", rc == 0)
    report = json.loads(out)
    cases = [c for r in report["reports"] for c in r["cases"]]
    checks.add("reported failed == 0", report["failed"] == 0)
    checks.add(f"{VERIFY_CASES[max_n]} cases", len(cases) == VERIFY_CASES[max_n])
    for case in cases:
        checks.add(case["case"], case["ok"])
    marks = [s.start, *marks, s.end]
    return s.result(
        list(zip(marks, marks[1:])),
        checks,
        suites={r["suite"]: r["seconds"] for r in report["reports"]},
    )


def series(seed, smoke, tracer, first):
    """Cold library calls: g_d for d <= 18, then the k = 2 routes, the
    conversions of g_10, and the antipode and coproduct routes at n = 8.
    An operation is one call.  The calls and their order are fixed, so the
    seed changes nothing: what a call costs depends on the caches the calls
    before it have filled, so another order would give other operation
    times for the same work."""
    top, kmax, conv, n = (8, 5, 6, 5) if smoke else (18, 9, 10, 8)
    k_routes = ("gk_component", "gk_component_iterative", "gk_component_via_phi")
    k_calls = [(route, m) for m in range(kmax + 1) for route in k_routes]
    bases = ["G", "L", "R", "F"]
    a_routes = ["antipode_g", "antipode_g_four_step", "antipode_g_formula"]
    d_routes = ["delta_g_algebraic", "delta_g_biprofiles", "delta_g_noncrossing"]
    groups = ["k", "convert", "antipode", "coproduct"]

    out = {}

    def call(module, name, *args):
        # looked up at call time, so that a traced child reaches the
        # tracer's wrappers
        return lambda: getattr(module, name)(*args)

    ops = [(("g", d), call(lagrange, "g_component", d)) for d in range(1, top + 1)]
    for group in groups:
        if group == "k":
            ops += [(("k", f, m), call(lagrange, f, 2, m)) for f, m in k_calls]
        elif group == "convert":
            for b in bases:
                ops.append((("to", b), lambda b=b: algebra.convert(out["g", conv], b)))
                ops.append((("back", b), lambda b=b: algebra.convert(out["to", b], "S")))
        elif group == "antipode":
            ops += [(("antipode", f), call(lagrange, f, n)) for f in a_routes]
        else:
            ops += [(("coproduct", f), call(hopf, f, n)) for f in d_routes]

    clock = time.perf_counter
    with Section(tracer) as s:
        marks = [clock()]
        for key, fn in ops:
            out[key] = fn()
            marks.append(clock())
    checks = Checks()
    for d in range(1, top + 1):
        g = out["g", d]
        checks.add(f"g_{d} has 2^{d - 1} terms", len(g.terms) == 2 ** (d - 1))
        checks.add(f"g_{d} sums to Catalan({d})", sum(g.terms.values()) == queries.catalan(d))
    for m in range(kmax + 1):
        a, b, c = (out["k", f, m] for f in k_routes)
        checks.add(f"k=2 routes agree, n={m}", a == b == c)
    for b in bases:
        y, back = out["to", b], out["back", b]
        checks.add(f"g_{conv} -> {b} -> S round trip", y.basis == b and back == out["g", conv])
    a = [out["antipode", f] for f in a_routes]
    checks.add(f"antipode routes agree, n={n}", a[0] == a[1] == a[2])
    t = [out["coproduct", f] for f in d_routes]
    checks.add(f"coproduct routes agree, n={n}", t[0] == t[1] == t[2])
    return s.result(list(zip(marks, marks[1:])), checks)


def mixed(seed, smoke, tracer, first):
    """A closed loop with one client: each query starts when the previous
    one has answered, all in this one interpreter."""
    stream = queries.make_stream(seed, 60 if smoke else 2000, smoke)
    clock = time.perf_counter
    spans, digests, answers = [], [], {}
    with Section(tracer) as s:
        for _, argv, _ in stream:
            t0 = clock()
            try:
                rc, out = _cli(argv)
            except Exception as e:  # a traceback is a failed query
                rc, out = None, repr(e)
            spans.append((t0, clock()))
            # a repeat keeps only its digest, so that little of the peak RSS
            # is the harness's
            digests.append(hashlib.sha1(f"{rc} {out}".encode()).hexdigest())
            answers.setdefault(tuple(argv), (rc, out))
    checks = Checks()
    want = {}
    for (kind, argv, facts), digest in zip(stream, digests):
        if not first:
            break
        key = tuple(argv)
        if key in want:
            checks.add(" ".join(argv) + " (repeat: same answer)", digest == want[key])
            continue
        want[key] = digest
        rc, out = answers[key]
        try:
            ok = rc == 0 and queries.check(kind, argv, facts, json.loads(out))
        except Exception:  # a check that cannot read the answer fails it
            ok = False
        checks.add(" ".join(argv), ok)
    stats = queries.stream_stats(stream)
    stats["decimal_coefficient_answers"] = sum(
        queries.has_decimal_coefficients(out) for _, out in answers.values()
    )
    return s.result(spans, checks, digests=digests, stream=stats)


WORKLOADS = {"verify-n6": verify, "series-d18": series, "queries-mixed": mixed}

