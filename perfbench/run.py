"""Benchmark of the tricva pricing pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload price-book --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout, with tricva imported from
src/. Prints progress to stderr and, as the last line of stdout, one
JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread: on a shared two-core machine a second thread
# waits on other tenants and widens the run-to-run spread, and the
# eigensolver and pricing kernels run no slower on one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports tricva: fails outside a checkout)
from tracing import Tracer  # noqa: E402

OUT = ROOT / "perfbench-out"
N_SETUPS = 3
UNITS = {"requests_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def median_cost(outcomes):
    """Seconds of the run's requests, each kind costed at its median.

    Requests of one kind (one label) do the same work, or draws of it.
    The machine runs faster or slower by up to a third for stretches of
    a few to some 15 seconds; a median over a kind's requests keeps such
    a stretch from moving the run's rate unless it covers half of them.
    """
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.label, []).append(o.seconds)
    return sum(len(t) * statistics.median(t) for t in by_kind.values())


def run(workload, seed, seconds, traced):
    work = OUT / ("%s-%d-%d" % (workload, seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[workload](seed, work)
        setups = [wl.setup(i) for i in range(N_SETUPS)]
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        outcomes = []
        rounds = 0
        start = time.perf_counter()
        while True:
            for outcome in wl.round(tracer):
                outcomes.append(outcome)
                print("%-22s %8.3f s  %s" % (outcome.label, outcome.seconds,
                                             "; ".join(outcome.violations)
                                             or "ok"), file=sys.stderr)
            rounds += 1
            # Whole rounds only: stop at the round whose end lies nearest
            # to --seconds, so a long round does not overshoot it by most
            # of its length.
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / rounds >= seconds:
                break
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [o for o in outcomes if o.violations]
    result = {
        "correct": all(o.known_fault for o in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
    }
    rate = len(outcomes) / median_cost(outcomes)
    if tracer is None:
        metrics = {
            "requests_per_s": rate,
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
    else:
        metrics = tracer.metrics(len(outcomes))
        units = _per_layer_units()
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / ("%s-%d.json" % (workload, seed)))
        print("traced requests_per_s %.6g" % rate, file=sys.stderr)
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
