"""Tests of the benchmark harness itself (not of nclag).

    python3 -m pytest perfbench -q

The smoke runs use tiny inputs and a one-second budget, so the whole file
takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import queries  # noqa: E402
import run  # noqa: E402
from probe import NOMINAL_KERNEL_MS, Probe  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_harness():
    from nclag import cli

    assert run.VERIFY_SUITES == tuple(cli.SUITES)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-n6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    inner = tracer._span("inner", lambda: time.sleep(0.03), None)

    def outer_body():
        time.sleep(0.02)
        inner()

    outer = tracer._span("outer", outer_body, None)
    outer()
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert 0.02 <= tracer.self_time["outer"] < 0.03
    assert 0.03 <= tracer.self_time["inner"] < 0.045
    (sid_o, parent_o, *_), (sid_i, parent_i, *_) = tracer.spans
    assert parent_o == -1 and parent_i == sid_o


def test_tracer_restores_every_original():
    from nclag import algebra, cli, incidence

    before = (
        dict(vars(algebra.NSymElement)),
        dict(vars(incidence.NCLattice)),
        dict(vars(cli)),
        algebra.convert,
    )
    tracer = Tracer()
    tracer.install()
    assert algebra.convert is not before[3]
    tracer.restore()
    after = (
        dict(vars(algebra.NSymElement)),
        dict(vars(incidence.NCLattice)),
        dict(vars(cli)),
        algebra.convert,
    )
    assert after == before
    assert tracer.missing == []


def test_query_stream_depends_only_on_the_seed():
    assert queries.make_stream(3, 300) == queries.make_stream(3, 300)
    assert queries.make_stream(3, 300) != queries.make_stream(4, 300)
    mix = queries.stream_stats(queries.make_stream(3, 2000))["mix"]
    assert mix == queries.stream_stats(queries.make_stream(4, 2000))["mix"]
    assert set(mix) == set(queries.KINDS) and set(mix.values()) == {100}


def test_probe_removes_its_samples_and_scales_by_the_samples_around():
    probe = Probe()
    # a 1 ms sample every 50 ms, but the one at 250 ms took 3 ms
    probe.starts = [0.05 * i for i in range(8)]
    probe.durations = [0.001] * 8
    probe.durations[5] = 0.003
    raw, scaled = probe.scale([(0.002, 0.008), (0.21, 0.29), (0.352, 0.356)])
    assert raw == pytest.approx([6.0, 80.0 - 3.0, 4.0])
    # within 0.1 s of each operation: samples 0-2; 3-7, one of them 3 ms;
    # 6-7: the median is 1 ms for each
    k = NOMINAL_KERNEL_MS
    assert scaled == pytest.approx([6.0 * k, 77.0 * k, 4.0 * k])
    # a run of slow samples around an operation slows its scale
    probe.durations[4:8] = [0.002] * 4
    _, scaled = probe.scale([(0.352, 0.356)])
    assert scaled == pytest.approx([4.0 * k / 2])


def test_probe_samples_during_a_section_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with Probe() as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one before, one after, and one per period in between
    assert len(probe.durations) >= 4
    assert probe.starts == sorted(probe.starts)
