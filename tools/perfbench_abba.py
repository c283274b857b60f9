#!/usr/bin/env python3
"""ABBA comparison of perfbench between a base revision and the working tree.

    python3 tools/perfbench_abba.py --base HEAD~1 --workload ws_design \\
        --seeds 1 2 3 4 --seconds 25

Run from the repository root. The base revision is extracted with
`git archive` into a git-ignored directory next to the working tree
(`.abba/<commit>/`, or --base-dir), so nothing is registered in the
repository. Each tree runs its own, unchanged `perfbench/run.py`, which
builds that tree's sources into its own `.bench_build/`. Seed i is one pair
of runs; the order alternates per pair (base first on even pairs, working
tree first on odd ones), so slow drift of the host loads both sides alike.

For every metric of the result lines the script prints the medians of both
sides, the interquartile range of the base runs, the relative change, how
many pairs moved in the metric's better direction (BENCHMARK.json), and the
claim rule: a gain counts only when the median gap exceeds the base IQR.
--json appends the same table, one metric per line with every run's value,
for BENCH_results.json.
"""

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"


def fail(message):
    print(f"perfbench_abba: {message}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    run = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if run.returncode != 0:
        fail(f"git {' '.join(args)}: {run.stderr.decode().strip()}")
    return run.stdout


def extract_base(rev, base_dir):
    """Extracts `rev` into `base_dir` once; returns the tree's root."""
    commit = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    tree = pathlib.Path(base_dir) if base_dir else ROOT / ".abba" / commit
    stamp = tree / ".abba_commit"
    if stamp.is_file() and stamp.read_text().strip() == commit:
        return tree, commit
    tree.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as archive:
        archive.extractall(tree)
    stamp.write_text(commit + "\n")
    return tree, commit


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`; returns its parsed result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    run = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                         text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"perfbench failed in {tree} (seed {seed})")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("stamp "):
            result["stamp"] = json.loads(line[len("stamp "):])
    if not result.get("correct", False) or result.get("failed", 0):
        print(f"# {tree.name} seed {seed}: correct={result.get('correct')} "
              f"failed={result.get('failed')}", flush=True)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="base revision (any git revision name)")
    parser.add_argument("--base-dir", default=None,
                        help="where to extract the base tree "
                             "(default .abba/<commit>/)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None,
                        help="append the comparison to this JSON-lines file")
    args = parser.parse_args()

    manifest = json.loads(MANIFEST.read_text())
    better = {m["name"]: m["better"]
              for m in manifest["end_to_end"] + manifest["per_layer"]}
    base_tree, base_commit = extract_base(args.base, args.base_dir)
    head_commit = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "src", "perfbench").strip())

    runs = {"base": [], "head": []}
    for pair, seed in enumerate(args.seeds):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            tree = base_tree if side == "base" else ROOT
            result = run_once(tree, args.workload, seed, args.seconds,
                              args.trace)
            runs[side].append(result)
            ops = result["metrics"].get("ops_per_s", {}).get("value")
            print(f"# pair {pair} seed {seed} {side}: ops_per_s={ops}",
                  flush=True)

    names = list(runs["base"][0]["metrics"])
    print(f"# base {base_commit[:12]} vs head {head_commit[:12]}"
          f"{'-dirty' if dirty else ''}: {args.workload}, "
          f"{len(args.seeds)} pairs x {args.seconds} s, trace={args.trace}")
    print(f"{'metric':40} {'base':>11} {'head':>11} {'base IQR':>10} "
          f"{'change':>8} {'better':>7}  claim")
    rows = []
    for name in names:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        base_med, head_med = statistics.median(base), statistics.median(head)
        q1, q3 = quartiles(base)
        iqr = q3 - q1
        sign = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
        gap = sign * (head_med - base_med)
        change = (head_med - base_med) / base_med if base_med else 0.0
        claim = ("gain" if gap > iqr else
                 "loss" if -gap > iqr else "within base IQR")
        rows.append({"metric": name, "base_median": base_med,
                     "head_median": head_med, "base_iqr": iqr,
                     "change": change, "pairs_better": wins,
                     "pairs": len(base), "claim": claim,
                     "base_runs": base, "head_runs": head})
        print(f"{name:40} {base_med:11.4g} {head_med:11.4g} {iqr:10.3g} "
              f"{change:+8.1%} {wins:>3}/{len(base):<3}  {claim}")
    if args.json:
        stamp = {"bench": "perfbench_abba", "workload": args.workload,
                 "base": base_commit, "head": head_commit, "dirty": dirty,
                 "seeds": args.seeds, "seconds": args.seconds,
                 "trace": args.trace,
                 "stamp": runs["head"][0].get("stamp")}
        with open(args.json, "a") as out:
            for row in rows:
                out.write(json.dumps({**stamp, **row}) + "\n")


if __name__ == "__main__":
    main()
