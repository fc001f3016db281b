"""Benchmark of the breakeven CLI.

    python3 perfbench/run.py --workload desk_spectral --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 1

Run from the root of a checkout. Each run starts fresh interpreters with the
BLAS thread count fixed at 1 before numpy is imported, and imports the
package from the checkout's ``src`` directory (nothing is installed).

With ``--trace 0`` the run measures the set-up time of several fresh
interpreters, then one worker repeats the workload's CLI call for
``--seconds``, checks every output and reports the end-to-end metrics;
timings are rescaled by a calibration kernel (see calibrate.py). With
``--trace 1`` one worker measures untraced calls, then traced calls, and
reports the per-layer metrics; the spans are written to
``.bench_build/perfbench/spans/``. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 0 only when every operation passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, variant_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, workdir: Path, *extra) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), *extra]
    timeout = PROBE_TIMEOUT_S if "--setup-only" in extra else WORKER_TIMEOUT_S
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(args, workdir: Path) -> list:
    """(raw, scaled) seconds from spawning a fresh interpreter until it has
    imported breakeven.cli and written the workload's config, per probe; one
    uncounted probe first compiles bytecode and warms the file cache."""
    times = []
    for i in range(SETUP_PROBES + 1):
        spawned = f"{time.monotonic()!r}"
        probe = json.loads(_worker(args, workdir / f"setup_{i}", "--setup-only", spawned))
        if i:
            times.append((probe["raw"], probe["scaled"]))
    return times


def check_digest(args, build: Path, digests: list) -> str:
    """Compare this run's output digest with the one an earlier run of the
    same workload, seed, source tree and workload definitions recorded in
    this checkout; returns a failure message or an empty string."""
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "workloads.py"]:
        tree.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    record = build / "digests" / f"{args.workload}-seed{args.seed}-{tree.hexdigest()[:16]}.txt"
    if len(digests) != 1:
        return ""
    if record.exists():
        if record.read_text() != digests[0]:
            return f"outputs differ from an earlier run with the same inputs ({record.name})"
        return ""
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(digests[0])
    return ""


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args) -> int:
    build = ROOT / ".bench_build" / "perfbench"
    workdir = build / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    spans_out = build / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    try:
        setup = None if args.trace else measure_setup(args, workdir)
        extra = ()
        if args.trace:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            extra = ("--spans-out", str(spans_out))
        result = json.loads(_worker(args, workdir / "run", *extra))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatch = check_digest(args, build, result["digest"])
    if mismatch:
        result["failures"] = [mismatch] * result["attempted"]
    attempted = result["attempted"]
    failed = len(result["failures"])
    env = result["env"]
    print(f"workload {args.workload}: seed {args.seed} (input variant {variant_of(args.seed)}), "
          f"{result['calls']} untraced calls")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print("work per call: " + ", ".join(f"{k} {_fmt(v)}" for k, v in sorted(result["work"].items())))
    print(f"output digest: {' '.join(result['digest']) or '-'}")
    if result["verdicts"]:
        print("sweep verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(result["verdicts"].items())))
    for message in result["failures"][:10]:
        print(f"FAILED: {message}")
    print(f"failed_frac = {_fmt(failed / attempted)} frac ({failed} of {attempted} operations failed)")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layer_metrics"].items()}
        print(f"traced calls {result['traced_calls']}; layers with spans: {', '.join(result['layers_traced'])}")
        if result["missing"]:
            print(f"trace.missing: {', '.join(result['missing'])}")
        print(f"spans written to {spans_out.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(t[1] for t in setup), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"unscaled: setup_raw_s = {_fmt(statistics.median(t[0] for t in setup))} s "
              f"(median of {len(setup)} fresh interpreters), "
              f"wall_raw_s = {_fmt(result['wall_raw_s'])} s (median of {result['calls']} calls)")
    for name, m in metrics.items():
        print(f"{name} = {_fmt(m['value'])} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own run.py process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S + 120)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} produced no result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "breakeven" / "cli.py").is_file():
        print(f"error: no breakeven source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
