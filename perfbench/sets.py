"""Run sets of benchmark runs and print each end-to-end metric's spread.

    python3 perfbench/sets.py --sets 2 --seeds 10

Each set runs every workload of BENCHMARK.json once per seed (seeds
1..N) for its run_seconds, one run at a time. For each set, workload
and metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the interquartile range as a share of the median, the figure
compared with the metric's bound in BENCHMARK.json; then, across sets,
how far each later median lies from the first. Raw results go to
perfbench-out/sets/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s seed %d exited %d"
                           % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per workload and set, seeds 1..N")
    args = parser.parse_args(argv)
    seeds = list(range(1, args.seeds + 1))
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = []
    for k in range(args.sets):
        runs = {name: [] for name in names}
        for name in names:
            for seed in seeds:
                res = one_run(spec["command"], name, seed, seconds)
                runs[name].append(res)
                print("set %d %s seed %d: %.1f s wall, %d/%d failed"
                      % (k + 1, name, seed, res["wall_s"], res["failed"],
                         res["attempted"]), file=sys.stderr)
        sets.append(runs)

    out = ROOT / "perfbench-out" / "sets"
    out.mkdir(parents=True, exist_ok=True)
    path = out / ("sets-%d.json" % int(time.time()))
    with open(path, "w") as fh:
        json.dump({"seeds": seeds, "seconds": seconds, "sets": sets},
                  fh, indent=1)

    for name in names:
        first = {}
        for k, runs in enumerate(sets):
            res = runs[name]
            share = {r["failed"] / r["attempted"] for r in res}
            wall = summary([r["wall_s"] for r in res])["median"]
            print("%s set %d: failed share %s, median wall %.1f s"
                  % (name, k + 1, sorted(share), wall))
            for metric in res[0]["metrics"]:
                s = summary([r["metrics"][metric]["value"] for r in res])
                first.setdefault(metric, s["median"])
                shift = s["median"] / first[metric] - 1.0
                print("  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %6.2f%%  vs set 1 %+6.2f%%  (bound %g%%)"
                      % (metric, s["median"], s["q1"], s["q3"],
                         100 * s["spread"], 100 * shift,
                         100 * bounds[metric]))
    print("raw results: %s" % path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
