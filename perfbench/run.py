#!/usr/bin/env python3
"""vpart benchmark: one fixed-work workload per run, checked answers, named
metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a vpart source tree. The first run builds
perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Workloads and their recorded requests live in
perfbench/workloads.json; metric names and units in BENCHMARK.json.

stdout: one record line per run (host cores, build type, compiler, commit,
seed, failure ratio, tail latency, count-repeat check), then, as the last
line, {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Records, raw
measurements, deterministic counts and span traces go to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

BINARY_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds vpart_perfbench; returns its path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no vpart sources at {ROOT}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "vpart_perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return build_dir / "vpart_perfbench"


def source_identity():
    """(commit, digest): the git commit when there is one, and a digest of
    every file the library and the benchmark are built from, which names the
    program and its inputs also in a checkout without git metadata."""
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip() or commit
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    sources = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt",
               HERE / "workloads.json", *(ROOT / "src").rglob("*"),
               *(HERE / "src").rglob("*")]
    for path in sorted(sources):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def self_test(verbosity):
    suite = unittest.defaultTestLoader.discover(str(HERE), "test_*.py")
    result = unittest.TextTestRunner(stream=sys.stderr,
                                     verbosity=verbosity).run(suite)
    return result.wasSuccessful()


def check_counts(out_dir, digest, workload, seed, counts):
    """Compares this run's deterministic counts with earlier runs of the same
    sources and seed, then stores the union."""
    path = out_dir / "counts.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    previous = store.setdefault(digest, {}).setdefault(
        workload, {}).setdefault(str(seed), {})
    drift = metrics.compare_counts(previous, counts)
    for key, fields in counts.items():
        previous.setdefault(key, {}).update(fields)
    path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return drift


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return 0 if self_test(2) else 1
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not self_test(0):
        log("self-test of the metric logic failed")
        return 1

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec_path = HERE / "workloads.json"
    spec = json.loads(spec_path.read_text())
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload}")

    binary = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    command = [str(binary), "--spec", str(spec_path.relative_to(ROOT)),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(out_dir.relative_to(ROOT))]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=BINARY_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"vpart_perfbench exited with {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout)
    raw_path = out_dir / f"raw_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    raw_path.write_text(proc.stdout)

    attempted, failed = metrics.count_failures(raw["samples"])
    if args.trace:
        values = metrics.per_layer(raw)
        declared = bench["per_layer"]
    else:
        values = metrics.end_to_end(raw)
        declared = bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        log(f"metrics not produced: {missing}")
        return 1
    layer_failures = [l for l in raw["layers"] if l.get("error")]
    for l in layer_failures:
        log(f"replay of {l['key']} failed: {l['error']}")
    for s in raw["samples"]:
        if not s.get("ok"):
            log(f"request {s['key']} ({s['cls']}) failed: {s.get('error')}")

    commit, digest = source_identity()
    counts, drift = metrics.deterministic_counts(raw)
    drift += check_counts(out_dir, digest, args.workload, args.seed, counts)
    for line in drift:
        log(f"deterministic count drifted: {line}")
    record = {
        "record": "vpart-perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": spec["seeds"]["held_out"],
        "trace": args.trace,
        "seconds": args.seconds,
        "host_cores": raw["meta"]["host_cores"],
        "build_type": raw["meta"]["build_type"],
        "compiler": raw["meta"]["compiler"],
        "commit": commit,
        "source_digest": digest,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "counts_repeat": not drift,
        "wall_s": round(time.monotonic() - started, 3),
        **metrics.tail_latency(raw),
        "metrics": values,
    }
    if args.trace:
        record["trace_file"] = raw.get("trace_file")
    with (out_dir / "records.jsonl").open("a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))

    result = {
        "correct": failed == 0 and not layer_failures and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError, ValueError) as error:
        log(f"error: {error}")
        sys.exit(1)
