"""One measuring process of the benchmark, started by run.py in a fresh
interpreter with the BLAS thread count already fixed in its environment.

    worker.py --setup-only T ... import breakeven.cli, write the config, and
                                 print the seconds since T (the parent's
                                 CLOCK_MONOTONIC spawn time), raw and scaled
    worker.py ...                repeat the workload's CLI operation for the
                                 given seconds, check every output, and print
                                 one JSON object as the last line

With ``--trace 1`` the seconds are split: the first half measures untraced
calls (the base of ``trace.overhead_frac``), the second half traced calls.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import Calibrator, KernelProcess, scaled
from checks import CHECKS, output_bytes, output_digest
from spans import Tracer
from tracepoints import MAIN_SPAN, install, layer_metrics
from workloads import WORKLOADS, variant_of, write_config

MIN_CALLS = 2  # the byte-reproducibility check compares at least two calls


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans-out", default=None)
    p.add_argument("--setup-only", type=float, default=None, metavar="SPAWNED_AT",
                   help="CLOCK_MONOTONIC time at which the parent spawned this process")
    return p.parse_args(argv)


def _import_cli(src: Path):
    """Import breakeven.cli from the checkout's source tree, never from an
    installed copy."""
    from breakeven import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"breakeven imported from {cli.__file__}, not from {src}")
    return cli


class CallLoop:
    """Repeats one workload's CLI operation and checks each call."""

    def __init__(self, cli, workload, config_path: Path, seed: int, workdir: Path, kernel: KernelProcess):
        self.cli = cli
        self.workload = workload
        self.config_path = config_path
        self.config = json.loads(config_path.read_text(encoding="utf-8"))
        self.variant = variant_of(seed)
        self.workdir = workdir
        self.check = CHECKS[workload.name]
        self.kernel = kernel
        self.walls = []  # raw seconds per call
        self.kernels = []  # calibration kernel seconds around each call
        self.attempted = 0
        self.failures = []
        self.work = {}
        self.digests = set()
        self.verdicts = None
        self.bytes_written = 0
        self.calls = 0

    def operations(self) -> int:
        axis = self.config.get("axis")
        return len(axis["values"]) * len(self.config["seeds"]) if axis else 1

    def one_call(self, invoke) -> None:
        """Run one operation through ``invoke(main, argv)`` and check it."""
        out = self.workdir / f"call_{self.calls:04d}"
        self.calls += 1
        argv = [self.workload.subcommand, "--config", str(self.config_path), "--out", str(out), "--quiet"]
        before = self.kernel.sample()
        t0 = time.perf_counter()
        try:
            code = invoke(self.cli.main, argv)
        except Exception as exc:  # an uncaught error fails the call, not the run
            code = f"{type(exc).__name__}: {exc}"
        self.walls.append(time.perf_counter() - t0)
        self.kernels.append((before + self.kernel.sample()) / 2)
        try:
            if code != 0:
                raise RuntimeError(f"main returned {code}")
            outcome = self.check(out, self.config, self.variant)
            self.digests.add(output_digest(out))
            if len(self.digests) > 1:
                raise RuntimeError("outputs differ between calls with identical inputs")
            for key, value in outcome.work.items():
                self.work[key] = self.work.get(key, 0) + value
            self.attempted += outcome.attempted
            self.failures += outcome.failures
            self.verdicts = outcome.verdicts
            self.bytes_written += output_bytes(out)
        except Exception as exc:  # a call that fails any check fails all its operations
            self.attempted += self.operations()
            self.failures += [f"{type(exc).__name__}: {exc}"] * self.operations()
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def run_for(self, seconds: float, invoke) -> dict:
        """Call repeatedly until another call would overrun ``seconds``;
        returns the call count and the median raw and scaled wall times."""
        start = len(self.walls)
        t0 = time.perf_counter()
        while True:
            self.one_call(invoke)
            walls = self.walls[start:]
            elapsed = time.perf_counter() - t0
            if len(walls) >= MIN_CALLS and elapsed + elapsed / len(walls) > seconds:
                return {
                    "calls": len(walls),
                    "raw": statistics.median(walls),
                    "scaled": statistics.median(
                        scaled(w, k) for w, k in zip(walls, self.kernels[start:])
                    ),
                }


def _plain(main, argv):
    return main(argv)


def _env_record(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "variant": variant_of(args.seed),
        "seconds": args.seconds,
    }


def _blas_threads():
    """Thread count the OpenBLAS bundled with numpy reports, or the
    environment setting when no such library is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(__file__).resolve().parent.parent
    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload]
    cli = _import_cli(root / "src")
    config_path = write_config(workload, args.seed, workdir)
    if args.setup_only is not None:
        raw = time.monotonic() - args.setup_only
        print(json.dumps({"raw": raw, "scaled": scaled(raw, Calibrator().sample())}))
        return 0

    with KernelProcess() as kernel:
        loop = CallLoop(cli, workload, config_path, args.seed, workdir, kernel)
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = loop.run_for(budget, _plain)
        result = {
            "env": _env_record(args),
            "calls": untraced["calls"],
            "wall_s": untraced["scaled"],
            "wall_raw_s": untraced["raw"],
            "peak_rss_mb": _peak_rss_mb(),
        }
        if args.trace:
            tracer = Tracer()
            install(tracer)
            work_before, bytes_before = dict(loop.work), loop.bytes_written

            def traced(main, argv):
                tracer.run += 1
                return tracer.call(MAIN_SPAN, main, (argv,))

            try:
                traced_walls = loop.run_for(budget, traced)
            finally:
                tracer.unpatch()
            n = traced_walls["calls"]
            checkpoints = loop.work.get("checkpoints", 0) - work_before.get("checkpoints", 0)
            metrics = layer_metrics(
                tracer, n, checkpoints, loop.bytes_written - bytes_before,
                traced_walls["scaled"], untraced["scaled"],
            )
            result["layer_metrics"] = metrics
            result["traced_calls"] = n
            result["missing"] = tracer.missing
            result["layers_traced"] = sorted({s.name.split(".")[0] for s in tracer.spans})
            if args.spans_out:
                tracer.write(args.spans_out)
        result.update(
            attempted=loop.attempted,
            failures=loop.failures,
            work={k: v / loop.calls for k, v in loop.work.items()},
            digest=sorted(loop.digests),
            verdicts=loop.verdicts,
        )
    print(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
