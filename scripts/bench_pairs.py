"""Interleaved before-and-after runs of the end-to-end benchmark.

    python3 scripts/bench_pairs.py --base HEAD~1 --workload readme-train \\
        --seed 9001

Each pair runs ``python3 e2ebench/run.py --workload W --seed S --seconds T
--trace 0`` once on the base revision and once on the working tree, with
the same seed, and alternates which side runs first.  T is ``run_seconds``
of ``BENCHMARK.json``, and pair i uses seed ``--seed + i``.  The base side
is the committed files of ``--base``, exported with ``git archive`` into a
temporary directory.

The result goes to ``BENCH_<workload>.json`` at the repository root: each
run's result line, machine line, calibration line, wall line and model
digests, the median and the first and third quartiles of every end-to-end
metric on each side, in how many pairs the change was better, by the
direction ``BENCHMARK.json`` gives each metric, and in how many pairs the
two sides wrote the same models, and a verdict per metric (see
``verdicts``), also printed one line per metric.  The ``uncalibrated``
block gives the same medians, quartiles, wins and verdicts for the wall
lines' figures, which the run takes before it scales them by the host's
calibration block: the scaling can itself move a metric on a host whose
speed changes.  Each side
also records the git tree ids of ``src`` and ``e2ebench``, the code a run
executes, so ``git rev-parse <commit>:src`` tells whether a commit holds
the code that was measured, committed or not at the time; the change side
also records whether those two directories differed from HEAD.  Run it on an
otherwise idle machine: the pairs share its cores with anything else
running.

A run that fails is kept in its pair as its exit code and the last lines
of its stderr, and the pairs go on.  Medians, quartiles and wins count
only the pairs whose two runs completed; the file also gives, per side,
the failed runs and the failed and attempted operations of the completed
runs, since a rise in the share of failed operations matters as much as a
slower median.
The script exits 1 when any run failed or when ``src`` or ``e2ebench``
changed while the pairs ran; the file is written either way.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CODE = ("src", "e2ebench")
STDERR_LINES = 20


def git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def export(revision, into):
    """The committed files of ``revision``, unpacked under ``into``."""
    os.makedirs(into)
    archive = os.path.join(into, "rev.tar")
    git("archive", "--format=tar", "-o", archive, revision)
    checkout = os.path.join(into, "checkout")
    with tarfile.open(archive) as tar:
        tar.extractall(checkout, filter="data")
    os.remove(archive)
    return checkout


def working_trees():
    """The git tree id of each ``CODE`` directory as the working tree holds
    it, through a scratch index so the real one is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("add", "-A", "--", *CODE, env=env)
        return {path: git("write-tree", f"--prefix={path}/", env=env) for path in CODE}


def uncommitted_changes():
    """Whether the working tree's ``CODE`` directories differ from HEAD;
    changes elsewhere, as the ``BENCH_*.json`` of an earlier workload, do
    not count."""
    return bool(git("status", "--porcelain", "--", *CODE))


def make_tmpdir(workdir):
    """A fresh temporary directory inside ``workdir``, which is created when
    missing, or in the system's temporary directory when it is None."""
    if workdir is not None:
        os.makedirs(workdir, exist_ok=True)
    return tempfile.mkdtemp(prefix="bench_pairs_", dir=workdir)


def run_once(checkout, workload, seed, seconds):
    """One benchmark run: its result, machine, calibration and wall lines
    (the wall line holds the end-to-end figures before calibration) and
    its model digests (sha256 of each model file without its timestamp), or,
    when it fails, its exit code and the tail of its stderr."""
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        run = {"result": json.loads(lines[-1])}
    except (IndexError, ValueError):
        run = None
    if proc.returncode != 0 or run is None:
        return {"exit_code": proc.returncode,
                "stderr_tail": proc.stderr.splitlines()[-STDERR_LINES:]}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("machine", "calibration", "wall", "digests"):
            run[key] = json.loads(rest)
        elif key == "FAILED":
            run.setdefault("failed", []).append(rest)
    return run


def quartiles(values):
    """The first and third quartiles of ``values``, interpolated linearly
    between the order statistics (numpy's default method)."""
    if len(values) == 1:
        return {"q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "q3": q3}


def compare(done, better, value):
    """Over the pairs ``done``: the per-side medians and quartiles of each
    metric in ``better``, read from a run by ``value(run, name)``, and the
    pairs the change won, by the direction in ``better`` (a tie wins
    nothing)."""
    def values(side, name):
        return [value(p[side], name) for p in done]

    medians = {side: {name: statistics.median(values(side, name))
                      for name in better} if done else {}
               for side in ("base", "change")}
    spread = {side: {name: quartiles(values(side, name))
                     for name in better} if done else {}
              for side in ("base", "change")}
    wins = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        wins[name] = sum(sign * (value(p["change"], name) - value(p["base"], name)) > 0
                         for p in done)
    return {"medians": medians, "quartiles": spread, "change_better_in_pairs": wins}


def verdicts(block, better, bounds):
    """Per metric of a ``compare`` block that holds ``completed_pairs``:
    ``gain`` when the change won at least 9 in 10 of the completed pairs
    and its median is better than the parent's by more than the parent's
    interquartile range; else ``worse`` when its median is worse than the
    parent's by more than the metric's relative bound; else ``unresolved``
    when the parent's interquartile range, relative to its median, exceeds
    the bound (or no pair completed); else ``within_bound``."""
    out = {}
    done = block["completed_pairs"]
    for name, direction in better.items():
        if not done:
            out[name] = "unresolved"
            continue
        sign = 1.0 if direction == "higher" else -1.0
        base, change = block["medians"]["base"][name], block["medians"]["change"][name]
        spread = block["quartiles"]["base"][name]
        iqr = spread["q3"] - spread["q1"]
        if 10 * block["change_better_in_pairs"][name] >= 9 * done \
                and sign * (change - base) > iqr:
            out[name] = "gain"
        elif -sign * (change - base) > bounds[name] * abs(base):
            out[name] = "worse"
        elif iqr > bounds[name] * abs(base):
            out[name] = "unresolved"
        else:
            out[name] = "within_bound"
    return out


def verdict_lines(label, block, bounds):
    """One line per metric: its verdict, the two medians, the pairs the
    change won, the parent's interquartile range and the bound."""
    lines = []
    for name, verdict in block["verdicts"].items():
        if not block["completed_pairs"]:
            lines.append(f"{label} {name}: {verdict} (no completed pair)")
            continue
        spread = block["quartiles"]["base"][name]
        lines.append(
            f"{label} {name}: {verdict} ({block['medians']['base'][name]:.4g} -> "
            f"{block['medians']['change'][name]:.4g}, better in "
            f"{block['change_better_in_pairs'][name]}/{block['completed_pairs']} pairs, "
            f"parent IQR {spread['q1']:.4g}-{spread['q3']:.4g}, bound {bounds[name]:.0%})")
    return lines


def summarize(pairs, better):
    """``compare`` of each end-to-end metric over the pairs whose two runs
    completed, with the pairs whose two runs wrote models with the same
    digests; the same comparison of the uncalibrated times of each run's
    ``wall`` line, over the completed pairs whose two runs printed one;
    and per side, the runs that failed and the failed and attempted
    operations of those that completed."""
    done = [p for p in pairs if "result" in p["base"] and "result" in p["change"]]
    calibrated = compare(done, better,
                         lambda run, name: run["result"]["metrics"][name]["value"])
    walled = [p for p in done if "wall" in p["base"] and "wall" in p["change"]]
    uncalibrated = compare(walled, better, lambda run, name: run["wall"][name])
    failures = {}
    for side in ("base", "change"):
        results = [p[side]["result"] for p in pairs if "result" in p[side]]
        failures[side] = {"failed_runs": len(pairs) - len(results),
                          "failed_operations": sum(r["failed"] for r in results),
                          "attempted_operations": sum(r["attempted"] for r in results)}
    same_models = sum(bool(p["base"].get("digests"))
                      and p["base"].get("digests") == p["change"].get("digests") for p in done)
    return {"completed_pairs": len(done), **calibrated,
            "uncalibrated": {"completed_pairs": len(walled), **uncalibrated},
            "model_digests_equal_in_pairs": same_models, "failures": failures}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--workdir", help="where to unpack the base, created if "
                        "missing (default: a temp dir)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    base = {"revision": git("rev-parse", args.base),
            "trees": {path: git("rev-parse", f"{args.base}:{path}") for path in CODE}}
    change = {"revision": git("rev-parse", "HEAD"),
              "uncommitted_changes": uncommitted_changes(),
              "trees": working_trees()}
    tmp = make_tmpdir(args.workdir)
    try:
        checkouts = {"base": export(args.base, os.path.join(tmp, "base")), "change": ROOT}
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = pair[side] = run_once(checkouts[side], args.workload, seed, seconds)
                status = (f"total_s {run['result']['metrics']['total_s']['value']:.4g}"
                          if "result" in run else f"FAILED, exit {run['exit_code']}")
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: {status}",
                      file=sys.stderr)
            pairs.append(pair)
    finally:
        shutil.rmtree(tmp)
    code_changed = working_trees() != change["trees"]
    summary = summarize(pairs, better)
    for block in (summary, summary["uncalibrated"]):
        block["verdicts"] = verdicts(block, better, bounds)
    doc = {
        "workload": args.workload,
        "command": ["python3", "e2ebench/run.py", "--workload", args.workload,
                    "--seed", "<seed>", "--seconds", str(seconds), "--trace", "0"],
        "base": base,
        "change": change,
        "code_changed_while_running": code_changed,
        "pairs": pairs,
        **summary,
    }
    out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    print(f"same models in {summary['model_digests_equal_in_pairs']}/"
          f"{summary['completed_pairs']} completed pairs", file=sys.stderr)
    for label, block in (("calibrated", summary), ("uncalibrated", summary["uncalibrated"])):
        for line in verdict_lines(label, block, bounds):
            print(line, file=sys.stderr)
    for side, counts in summary["failures"].items():
        print(f"{side}: {counts['failed_runs']} failed runs, {counts['failed_operations']}/"
              f"{counts['attempted_operations']} failed operations", file=sys.stderr)
    if code_changed:
        print("src or e2ebench changed while the pairs ran", file=sys.stderr)
    failed = any(counts["failed_runs"] for counts in summary["failures"].values())
    return 1 if failed or code_changed else 0


if __name__ == "__main__":
    sys.exit(main())
