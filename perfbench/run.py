#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ws_design --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
engine and the xnfbench program into .bench_build/ (Release); later runs
rebuild only what changed. Its output is passed through; the last line is the
JSON result, checked against BENCHMARK.json: every end-to-end metric (or,
with --trace 1, every per-layer metric) in its unit, and no other. A
per-layer metric whose layer the workload does not exercise is reported as 0.
Exits non-zero, without a result line, when the engine sources are missing,
the build fails or the result does not match the manifest.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_tmp"
MANIFEST = ROOT / "BENCHMARK.json"
WORKLOADS = ("ws_design", "co_bulk", "sql_shared")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds xnfbench; returns the binary path."""
    if not (ROOT / "src" / "api" / "database.h").is_file():
        fail("engine sources (src/) not found next to perfbench/")
    log = BUILD_DIR / "build.log"
    BUILD_DIR.mkdir(exist_ok=True)
    with open(log, "w") as out:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=out, stderr=out) != 0:
                fail(f"cmake configure failed, see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                            "--target", "xnfbench"],
                           stdout=out, stderr=out) != 0:
            fail(f"build failed, see {log}")
    return BUILD_DIR / "xnfbench"


def commit_id():
    """The git commit, else a hash of the sources xnfbench is built from."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode == 0 and pathlib.Path(top.stdout.strip()) == ROOT:
            head = git("rev-parse", "HEAD")
            dirty = git("status", "--porcelain", "src", "perfbench")
            if head.returncode == 0 and dirty.returncode == 0:
                return head.stdout.strip() + ("-dirty" if dirty.stdout else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def checked_result(line, trace):
    """The result line with its metrics checked against the manifest, in
    manifest order; per-layer metrics the run did not report are set to 0."""
    try:
        manifest = json.loads(MANIFEST.read_text())
        result = json.loads(line)
    except (OSError, ValueError) as error:
        fail(f"cannot read the manifest or the result line: {error}")
    wanted = manifest["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result.get("metrics", {})
    for name, metric in got.items():
        if units.get(name) != metric.get("unit"):
            fail(f"metric {name} ({metric.get('unit')}) is not in the manifest")
    missing = [name for name in units if name not in got]
    if missing and not trace:
        fail(f"end-to-end metrics missing: {', '.join(missing)}")
    if missing:
        print("# not exercised by this workload, reported as 0: " +
              " ".join(missing))
    result["metrics"] = {
        name: got.get(name, {"value": 0, "unit": unit})
        for name, unit in units.items()}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    WORK_DIR.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit_id(),
               "--work-dir", str(WORK_DIR)]
    try:
        run = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(run.stdout, end="")
        fail(f"xnfbench exited with code {run.returncode}")
    print("\n".join(lines[:-1]))
    print(checked_result(lines[-1], args.trace), flush=True)


if __name__ == "__main__":
    main()
