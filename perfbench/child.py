"""One measured pass in a fresh interpreter.

    python3 perfbench/child.py setup
    python3 perfbench/child.py <workload> <seed> <trace 0|1> <smoke 0|1> <first 0|1> <trace file>

``setup`` only times the import of the package.  Otherwise the pass runs
the workload once and prints one JSON object as its last line.  A fresh
interpreter per pass matters: the package's module-level caches would make
a second pass in the same process measure almost nothing.
"""

import json
import sys
import time


def main(argv):
    t0 = time.perf_counter()
    import nclag.cli  # noqa: F401  (imports every module of the package)

    setup_s = time.perf_counter() - t0
    if argv == ["setup"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    workload, seed = argv[0], int(argv[1])
    trace, smoke, first = (flag == "1" for flag in argv[2:5])
    import workloads

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    result = workloads.WORKLOADS[workload](seed, smoke, tracer, first)
    checks = result.pop("checks")
    result.update(
        setup_s=setup_s,
        attempted=checks.attempted,
        failed=len(checks.failed),
        failed_examples=checks.failed[:5],
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(argv[5], {"workload": workload, "seed": seed, "wall_s": result["wall_s"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
