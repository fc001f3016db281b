"""Record the desk_spectral reference: for every input variant, the sweep
verdicts and per-cell maxima the current source tree produces.

    python3 perfbench/record_reference.py

The checked-in reference was recorded at the commit that introduced the
benchmark. Re-record only when the workload's config changes, never to make
a changed program pass.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in benchmark runs; before numpy loads

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from breakeven.cli import main  # noqa: E402
from breakeven.trainer import config_hash  # noqa: E402
from checks import MAXIMA, REFERENCE_DIR  # noqa: E402
from workloads import N_VARIANTS, WORKLOADS, write_config  # noqa: E402


def record() -> dict:
    workload = WORKLOADS["desk_spectral"]
    workdir = HERE.parent / ".bench_build" / "perfbench" / "reference"
    variants = {}
    try:
        for variant in range(N_VARIANTS):
            config_path = write_config(workload, variant, workdir)
            out = workdir / f"out_{variant}"
            code = main(["sweep", "--config", str(config_path), "--out", str(out), "--quiet"])
            if code != 0:
                raise SystemExit(f"variant {variant}: exit code {code}")
            report = json.loads((out / "sweep_report.json").read_text(encoding="utf-8"))
            cells = [{name: cell["summary"][name] for name in MAXIMA} for cell in report["cells"]]
            for cell in report["cells"]:
                if cell["diverged"] or cell["error"]:
                    print(f"variant {variant}: cell {cell['axis_value']} diverged ({cell['error']})")
            variants[str(variant)] = {
                "config_hash": config_hash(json.loads(config_path.read_text(encoding="utf-8"))),
                "verdicts": report["verdicts"],
                "cells": cells,
            }
            print(f"variant {variant}: {report['verdicts']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload.name, "variants": variants}


if __name__ == "__main__":
    reference = record()
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / "desk_spectral.json"
    path.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
