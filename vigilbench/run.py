#!/usr/bin/env python3
"""The repository benchmark's entry point.

    python3 vigilbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the measuring program
(`vigilbench/harness`, a package of its own that depends on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload in a process of its own, and prints
every metric by name and unit, a provenance line, and, as the last line,
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics` (`--workload all` runs every workload in turn and keys that
line's metrics `<workload>/<metric>`). `--trace 0` reports the end-to-end metrics of
`BENCHMARK.json`; `--trace 1` reports its per-layer metrics and writes
the run's spans to `.bench_out/`. The full result, with its provenance,
is written to `.bench_out/` as well.

Exits non-zero, without printing a result, when the program cannot be
built or run, or when its metrics do not match `BENCHMARK.json`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS = HERE / "harness" / "Cargo.toml"
OUT = ROOT / ".bench_out"

# The measuring program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"vigilbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """The commit, or, outside a git checkout, a digest of the sources
    the benchmark builds from."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if head.returncode == 0 and head.stdout.strip():
            return {"commit": head.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", ROOT / "vendor", HERE]
    for root in roots:
        files = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
        for path in files:
            rel = path.relative_to(ROOT).as_posix()
            if "/target/" in f"/{rel}":
                continue
            digest.update(rel.encode())
            digest.update(path.read_bytes())
    return {"commit": None, "source_sha256": digest.hexdigest()}


def build(target):
    """Builds the measuring program; returns the build time in seconds."""
    env = os.environ.copy()
    env["CARGO_TARGET_DIR"] = str(target)
    started = time.monotonic()
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HARNESS)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        fail(3, "building the measuring program failed (are the repository's crates present?)")
    return time.monotonic() - started


def run_workload(spec, target, workload, args, build_s):
    """Runs one workload in its own process, checks its metric names
    against BENCHMARK.json, writes the result file and prints every
    metric and check. Returns the result."""
    cmd = [
        str(target / "release" / "vigilbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(OUT),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(4, f"{workload} exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(4, f"{workload} printed no result: {e}")

    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(5, f"metrics do not match BENCHMARK.json {kind}: missing {missing}, extra {extra}")

    provenance = {
        **source_digest(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": result["threads"],
        "cores_available": result["cores_available"],
        "build_s": build_s,
    }
    result["provenance"] = provenance
    name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")

    for metric, m in result["metrics"].items():
        print(f"{workload} {metric} {m['value']} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{workload} failed_share {share} ratio ({result['failed']} of {result['attempted']})")
    for check in result["checks"]:
        print(f"{workload} check {check['name']} {'ok' if check['pass'] else 'FAILED'}: {check['detail']}")
    print("provenance " + json.dumps(provenance))
    return result


def main():
    parser = argparse.ArgumentParser(description="vigil repository benchmark")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(2, f"cannot read BENCHMARK.json: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        fail(2, f"unknown workload {args.workload!r}; expected one of {workloads} or 'all'")
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_s = build(target)
    OUT.mkdir(exist_ok=True)

    if args.workload != "all":
        result = run_workload(spec, target, args.workload, args, build_s)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
        return
    # Every workload in turn, each in its own process; the last line
    # sums their outcomes and keys each metric by workload.
    results = {w: run_workload(spec, target, w, args, build_s) for w in workloads}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
