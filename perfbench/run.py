"""Benchmark of the nclag package: end-to-end metrics per workload, or
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload verify-n6 --seed 1 --seconds 42 --trace 0

Run from the root of a checkout.  Every pass of a workload runs in a fresh
interpreter (``child.py``), one at a time; passes repeat until the next one
would end after ``--seconds``.  Every pass runs the same operations.  In an
untraced pass a probe (``probe.py``) samples the machine's speed every few
ms and scales each operation's time to one fixed speed, since this shared
machine's own speed drifts by a third and more; each operation's scaled
time is the median over the passes, and the scaled metrics are computed
from those.  ``setup_s`` is the median import time over import probes
spread across the run, and peak memory the median over passes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when a result is printed, also when a check failed (``correct`` is then
false), and nonzero without a result when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

WORKLOADS = ("verify-n6", "series-d18", "queries-mixed")
END_TO_END_UNITS = {
    "setup_s": "s",
    "scaled_wall_s": "s",
    "peak_rss_mb": "MB",
    "scaled_ops_per_s": "1/s",
    "scaled_op_p50_ms": "ms",
    "scaled_op_p99_ms": "ms",
}
VERIFY_SUITES = (
    "lagrange",
    "bases",
    "negation",
    "antipode",
    "coproduct",
    "trees",
    "kreweras",
    "appendix",
    "factorization",
    "incidence",
)
# Interpreters that only time the import, started before each untraced
# pass, so that the import probes are spread across the run.
SETUP_PROBES_PER_PASS = 8
# A run must end within 180 s; no pass may outlive this.
HARD_LIMIT_S = 170


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("NCLAG_MAX_DEGREE", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
        PYTHONHASHSEED="0",
    )
    return env


def run_child(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {args} ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"pass {args} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def p99(values):
    """The 99th percentile; a pass of one operation is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def layer_unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def measure(args):
    """Run the passes; return (untraced results, traced results, setup times)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    BUILD.mkdir(exist_ok=True)
    (BUILD / "trace").mkdir(exist_ok=True)
    # the first interpreter of a fresh checkout writes the bytecode caches
    run_child(["setup"], deadline)
    setups = []
    kinds = [False, True] if args.trace else [False]
    results = {False: [], True: []}
    last = {}
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        if len(last) == len(kinds) and (
            time.monotonic() - start + last[traced] > args.seconds
        ):
            break
        trace_file = BUILD / "trace" / f"{args.workload}-seed{args.seed}.json"
        t0 = time.monotonic()
        if not args.trace:
            setups += [
                run_child(["setup"], deadline)["setup_s"]
                for _ in range(1 if args.smoke else SETUP_PROBES_PER_PASS)
            ]
        results[traced].append(
            run_child(
                [
                    args.workload,
                    str(args.seed),
                    "1" if traced else "0",
                    "1" if args.smoke else "0",
                    "0" if i else "1",
                    str(trace_file),
                ],
                deadline,
            )
        )
        last[traced] = time.monotonic() - t0
    return results[False], results[True], setups


def per_op(passes, key="op_scaled_ms"):
    """Each operation's time in ms, the median over the passes."""
    if len({len(p[key]) for p in passes}) != 1:
        raise BenchError("the passes of this run ran different numbers of operations")
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def end_to_end(passes, setups):
    ops = per_op(passes)
    wall = sum(ops) / 1e3
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "scaled_wall_s": wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "scaled_ops_per_s": len(ops) / wall,
        "scaled_op_p50_ms": statistics.median(ops),
        "scaled_op_p99_ms": p99(ops),
    }


def per_layer(plain, traced):
    # a measured value, so that counts stay whole numbers
    med = statistics.median_low
    values = {
        name: med(p["layers"][name] for p in traced) for name in traced[0]["layers"]
    }
    for suite in VERIFY_SUITES:
        values[f"cli.verify.{suite}.s"] = med(
            p.get("suites", {}).get(suite, 0.0) for p in plain
        )
    raw = "op_ms"
    values["trace.overhead_s"] = (sum(per_op(traced, raw)) - sum(per_op(plain, raw))) / 1e3
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true", help="tiny inputs, to test the harness itself"
    )
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nclag" / "__init__.py").is_file():
        print(f"error: no nclag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        plain, traced, setups = measure(args)
        if args.trace:
            values = per_layer(plain, traced)
        else:
            values = end_to_end(plain, setups)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    passes = plain + traced
    # later query passes are checked against the first pass's answers
    for p in passes[1:]:
        if "digests" in p:
            want = passes[0]["digests"]
            wrong = sum(a != b for a, b in zip(p["digests"], want))
            wrong += abs(len(p["digests"]) - len(want))
            p["attempted"] += len(p["digests"])
            p["failed"] += wrong
            if wrong:
                p["failed_examples"].append(f"{wrong} answers differ from the first pass")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "NCLAG_MAX_DEGREE": None,
        "PYTHONHASHSEED": 0,
    }
    print("# environment " + json.dumps(env))
    # every pass's operation times, for a look at a run after the fact
    dump = BUILD / "passes" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.parent.mkdir(exist_ok=True)
    dump.write_text(json.dumps({"untraced": plain, "traced": traced, "setups": setups}))
    print(
        "# unscaled wall_s {:.6g} s (median over passes, without the probe's samples)".format(
            statistics.median(sum(p["op_ms"]) / 1e3 for p in plain)
        )
    )
    kernel_ms = [k for p in plain for k in p["kernel_ms"]]
    print(
        f"# probe kernel {statistics.median(kernel_ms):.4g} ms median over"
        f" {len(kernel_ms)} samples (nominal {probe.NOMINAL_KERNEL_MS} ms)"
    )
    if "stream" in passes[0]:
        print("# query stream " + json.dumps(passes[0]["stream"]))
    for p in passes:
        if p["failed"]:
            print("# failed checks " + json.dumps(p["failed_examples"]))
    print(f"# fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} checks)")

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
