"""Machine-speed calibration for the timed metrics.

On a shared machine, speed drifts by tens of percent over tens of seconds
(identical calls of one run took 1.7 s to 2.5 s), far more than any bound
worth gating on. Every timing is therefore taken next to a fixed
calibration kernel and rescaled to the speed at which that kernel takes
``CAL_REF_S``:

    scaled = measured * CAL_REF_S / kernel time measured alongside

The kernel uses numpy and the interpreter only, never the package under
test, so a change to the program cannot change it. Its four parts take
about equal time and resemble what the workloads spend their time on:

    rotations  fancy-indexed row rotations of a small matrix and
               interpreted loops, as in the Jacobi rounds
    gemm       a 256x256 BLAS product, as in the wide forward passes
    gemv       a matrix-vector product over a basis larger than the L2
               cache, as in the Lanczos reorthogonalization
    draws      uniform draws with a row-wise argpartition, as in the
               Monte-Carlo ensembles

``KernelProcess`` runs the kernel in a child process, so that its buffers
never count toward the measured process's peak memory. Run as a script,
this module is that child: it answers every input line with one kernel
time.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

CAL_REF_S = 0.025  # kernel time on the benchmark machine in a quiet period
CAL_SAMPLES = 3


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a0 = rng.standard_normal((40, 40))
        self.ps = np.arange(0, 40, 2)
        self.qs = self.ps + 1
        self.x = rng.standard_normal((256, 256))
        self.w = rng.standard_normal((256, 256)) / 16.0
        self.basis = rng.standard_normal((72_000, 30))  # 17 MB
        self.r = rng.standard_normal(72_000)

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        a = self.a0.copy()
        acc = 0.0
        for _ in range(200):
            c = np.cos(a[self.ps, self.qs])
            s = np.sin(a[self.ps, self.qs])
            rp = a[self.ps, :]
            rq = a[self.qs, :]
            a[self.ps, :] = c[:, None] * rp - s[:, None] * rq
            a[self.qs, :] = s[:, None] * rp + c[:, None] * rq
            a /= np.linalg.norm(a)
            acc += sum(j * 0.5 for j in range(20))
        h = self.x
        for _ in range(6):
            h = np.maximum(h @ self.w, 0.0)
        for _ in range(4):
            acc += float((self.basis @ (self.basis.T @ self.r))[0])
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = rng.random((200, 60))
            acc += float(np.argpartition(u, 10, axis=1)[0, 0])
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median kernel time over a few back-to-back runs."""
        return statistics.median(self._kernel() for _ in range(CAL_SAMPLES))


class KernelProcess:
    """The calibration kernel in a child interpreter; ``sample`` blocks
    until the child has measured, so the two never compete for the CPU."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.sample()  # warm caches and the allocator

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scaled(measured: float, kernel: float) -> float:
    return measured * CAL_REF_S / kernel


if __name__ == "__main__":
    calibrator = Calibrator()
    for _ in sys.stdin:
        print(calibrator.sample(), flush=True)
