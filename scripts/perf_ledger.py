#!/usr/bin/env python3
"""Record and compare the repository's perf ledger (BENCH_perf_<workload>.json).

Record (from the repository root):

    python3 scripts/perf_ledger.py --baseline DIR [--runs K] [--seed0 N]

runs K seeds (seed0 .. seed0+K-1) of every BENCHMARK.json workload
through perfbench/run.py with tracing off, each for BENCHMARK.json's
run_seconds, on this tree and on DIR (a checkout of another commit,
normally the parent). Each (seed, workload) runs on both sides back to
back, the sides alternating which goes first, and the workloads take
turns per seed, so both sides sample the same spells of host speed. It
writes this tree's ledger to BENCH_perf_<workload>.json and DIR's to
BENCH_perf_<workload>.baseline.json, both at this repository's root and
both stamped with one session id.

Compare:

    python3 scripts/perf_ledger.py --compare

prints a markdown table of BENCH_perf_<workload>.json against
BENCH_perf_<workload>.baseline.json for every workload: both sides'
p25/p50/p75, the ratio of medians, the baseline's IQR and the win count
over the seeds (ties count for neither side). It refuses ledgers that
did not come from one recording session, since numbers from different
sessions differ by host drift as much as by code.

A ledger file holds, per metric, the median, p25 and p75 (inclusive
quartiles), n and the per-run values in seed order, plus the workload,
seconds per run, seeds, the commit the runs measured and the session id.
Only the standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ledger_path(workload, side):
    suffix = ".baseline" if side == "baseline" else ""
    return os.path.join(ROOT, "BENCH_perf_%s%s.json" % (workload, suffix))


def commit_of(tree):
    """HEAD of the tree's git checkout, marked -dirty if it has local changes."""
    try:
        head = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", tree, "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def run_once(tree, workload, seed, seconds):
    """One untraced perfbench run in `tree`; returns {metric: value}."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("perf_ledger: %s failed in %s" % (" ".join(command[1:]), tree))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("perf_ledger: %s seed %d in %s: correct=%s failed=%s"
                 % (workload, seed, tree, result["correct"], result["failed"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    if len(values) == 1:
        p25 = p50 = p75 = values[0]
    else:
        p25, p50, p75 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": p50, "p25": p25, "p75": p75, "n": len(values),
            "values": values}


def record(spec, args):
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    trees = {"this": ROOT, "baseline": os.path.abspath(args.baseline)}
    seeds = [args.seed0 + i for i in range(args.runs)]
    session = uuid.uuid4().hex
    commits = {side: commit_of(tree) for side, tree in trees.items()}
    runs = {(side, w): [] for side in trees for w in workloads}
    for i, seed in enumerate(seeds):
        order = ["this", "baseline"] if i % 2 == 0 else ["baseline", "this"]
        for workload in workloads:
            for side in order:
                runs[(side, workload)].append(
                    run_once(trees[side], workload, seed, seconds))
                print("%s seed %d %s: %s" % (
                    workload, seed, side,
                    json.dumps(runs[(side, workload)][-1])), file=sys.stderr)
    for (side, workload), side_runs in runs.items():
        ledger = {"workload": workload, "commit": commits[side],
                  "session": session, "seconds": seconds, "seeds": seeds,
                  "metrics": {name: summarize([run[name] for run in side_runs])
                              for name in side_runs[0]}}
        path = ledger_path(workload, side)
        with open(path, "w") as out:
            json.dump(ledger, out, indent=2, sort_keys=True)
            out.write("\n")
        print("wrote %s" % path, file=sys.stderr)


def load(workload, side):
    path = ledger_path(workload, side)
    if not os.path.exists(path):
        sys.exit("perf_ledger: %s is missing; record with --baseline first"
                 % os.path.relpath(path, ROOT))
    with open(path) as f:
        return json.load(f)


def fmt(value):
    return "%.4g" % value


def compare(spec):
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    pairs = [(w["name"], load(w["name"], "baseline"), load(w["name"], "this"))
             for w in spec["workloads"]]
    for workload, ref, new in pairs:
        for key in ("session", "seconds", "seeds"):
            if ref.get(key) is None or ref.get(key) != new.get(key):
                sys.exit("perf_ledger: %s ledgers differ in %s (%s vs %s); "
                         "only ledgers from one --baseline recording compare"
                         % (workload, key, ref.get(key), new.get(key)))
    print("| workload | metric | baseline p25/p50/p75 | this p25/p50/p75 "
          "| ratio | baseline IQR | wins |")
    print("|---|---|---|---|---|---|---|")
    for workload, ref, new in pairs:
        for name, mine in new["metrics"].items():
            theirs = ref["metrics"][name]
            wins = ties = 0
            for a, b in zip(theirs["values"], mine["values"]):
                if a == b:
                    ties += 1
                elif (b > a) == (better.get(name) == "higher"):
                    wins += 1
            ratio = (mine["median"] / theirs["median"]
                     if theirs["median"] else float("nan"))
            print("| %s | %s | %s | %s | %.3f | %s | %d/%d%s |" % (
                workload, name,
                "/".join(fmt(theirs[q]) for q in ("p25", "median", "p75")),
                "/".join(fmt(mine[q]) for q in ("p25", "median", "p75")),
                ratio, fmt(theirs["p75"] - theirs["p25"]), wins,
                len(new["seeds"]), " (%d ties)" % ties if ties else ""))
    print()
    print("baseline %s, this tree %s; session %s; %d s per run, seeds %s" % (
        ref["commit"], new["commit"], new["session"], new["seconds"],
        ",".join(str(s) for s in new["seeds"])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--baseline", metavar="DIR",
                      help="record: run this checkout, alternating with this tree")
    mode.add_argument("--compare", action="store_true",
                      help="print this tree's ledger against the baseline ledger")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=101)
    args = parser.parse_args()
    if args.runs < 1:
        sys.exit("perf_ledger: --runs must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.compare:
        compare(spec)
    else:
        record(spec, args)


if __name__ == "__main__":
    main()
