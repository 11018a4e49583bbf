"""Run workloads at several seeds, one fresh process per run, and summarise.

    python3 e2ebench/reference.py --seeds 1-10 [--workloads readme-train,heads-loop]
                                  [--trace 0] [--out .e2ebench_results]

Each run's full output is kept in OUT/<workload>-s<seed>-t<trace>.txt, and
OUT/summary-t<trace>.json holds, per workload and metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  The table printed
at the end compares each end-to-end spread with a third of its bound in
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=os.path.join(ROOT, ".e2ebench_results"))
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        results, digests = [], {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            name = f"{workload}-s{seed}-t{args.trace}.txt"
            with open(os.path.join(args.out, name), "w") as f:
                f.write(proc.stdout + proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            results.append(result)
            digests[seed] = next((ln[len("digests "):] for ln in lines
                                  if ln.startswith("digests ")), None)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} correct {result['correct']}", flush=True)
        if not results:
            continue
        metrics = {m: summarise([r["metrics"][m]["value"] for r in results])
                   for m in results[0]["metrics"]}
        summary[workload] = {
            "metrics": metrics,
            "failed_share": [r["failed"] / r["attempted"] for r in results],
            "digests": digests,
        }
    with open(os.path.join(args.out, f"summary-t{args.trace}.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)

    print(f"\n{'workload':<14} {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound/3':>7}")
    for workload, s in summary.items():
        for metric, v in s["metrics"].items():
            bound = bounds.get(metric)
            mark = "" if bound is None or metric == "setup_s" or v["spread"] < bound / 3 \
                else "  <-- above bound/3"
            print(f"{workload:<14} {metric:<30} {v['median']:>12.5g} {v['q1']:>12.5g} "
                  f"{v['q3']:>12.5g} {v['spread']:>7.3f} "
                  f"{(bound / 3 if bound else float('nan')):>7.3f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
