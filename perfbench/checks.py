"""Correctness checks on one operation's outputs, and its work counts.

An operation is one sweep cell or one simulate call. A check returns an
``Outcome``: how many operations were attempted, which of them failed and
why, and the work they did (checkpoints, SGD steps, trajectory-steps), so
that timings keep their base.

The desk_spectral reference holds, per input variant, the sweep verdicts and
per-cell maxima that the seed commit produced. Verdicts are compared
exactly; maxima within ``MAXIMA_RTOL``, which leaves room for a change that
reorders floating-point sums without letting a changed trajectory through.
The benchmark does not gate on the paper's expected orderings: the verdicts
are whatever the reference recorded.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from breakeven.quadratic import breakeven_curvature_closed_form
from breakeven.trainer import config_hash, parse_metric_log, validate_metric_log

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MAXIMA = ("max_lambda_k1", "max_cond_ratio", "max_lambda_h1", "max_trace_k")
MAXIMA_RTOL = 1e-6
MC_ABS_DIFF_BOUND = 0.02  # acceptance bound on |fitted rate - log multiplier|
CLOSED_FORM_RTOL = 1e-12


@dataclass
class Outcome:
    attempted: int
    failures: list = field(default_factory=list)  # one message per failed operation
    work: dict = field(default_factory=dict)
    verdicts: Optional[dict] = None  # a sweep's ordinal verdicts, as they came out


def output_digest(out_dir: Path) -> str:
    """sha256 over every output file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def _close(a, b, rtol: float) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-300)


def _sgd_steps(config: dict, batch_size: int) -> int:
    data = config["dataset"]
    n_train = data["n"] - int(round(data.get("val_fraction", 0.2) * data["n"]))
    return config["epochs"] * -(-n_train // batch_size)


def _check_sweep_cells(out_dir: Path, config: dict, report: dict, outcome: Outcome, cell_check=None):
    """Per-cell checks shared by the sweep workloads; returns the failed cell
    indices with their messages."""
    axis = config["axis"]["name"]
    bad = {}
    for i, cell in enumerate(report["cells"]):
        if cell["error"] is not None or cell["diverged"] or cell["log"] is None:
            bad[i] = f"cell {i}: diverged={cell['diverged']} error={cell['error']}"
            continue
        text = (out_dir / cell["log"]).read_text(encoding="utf-8")
        try:
            validate_metric_log(text)
        except Exception as exc:  # any schema failure fails the cell
            bad[i] = f"cell {i}: log does not validate: {exc}"
            continue
        _, records = parse_metric_log(text)
        if not records:
            bad[i] = f"cell {i}: no checkpoints logged"
            continue
        outcome.work["checkpoints"] += len(records)
        batch = cell["axis_value"] if axis == "batch_size" else config["batch_size"]
        outcome.work["sgd_steps"] += _sgd_steps(config, batch)
        if cell_check is not None:
            message = cell_check(i, cell, records)
            if message:
                bad[i] = message
    return bad


def check_desk_spectral(out_dir: Path, config: dict, variant: int) -> Outcome:
    report = json.loads((out_dir / "sweep_report.json").read_text(encoding="utf-8"))
    outcome = Outcome(attempted=len(report["cells"]), work={"checkpoints": 0, "sgd_steps": 0},
                      verdicts=report["verdicts"])
    reference = json.loads((REFERENCE_DIR / "desk_spectral.json").read_text(encoding="utf-8"))
    ref = reference["variants"][str(variant)]

    def against_reference(i, cell, records):
        expected = ref["cells"][i]
        for name in MAXIMA:
            if not _close(cell["summary"][name], expected[name], MAXIMA_RTOL):
                return f"cell {i}: {name} {cell['summary'][name]!r} != reference {expected[name]!r}"
        return None

    bad = _check_sweep_cells(out_dir, config, report, outcome, against_reference)
    whole = []
    if config_hash(config) != ref["config_hash"]:
        whole.append("config differs from the one the reference was recorded with")
    if report["verdicts"] != ref["verdicts"]:
        whole.append(f"verdicts {report['verdicts']} != reference {ref['verdicts']}")
    if len(report["cells"]) != len(ref["cells"]):
        whole.append("cell count differs from the reference")
    if whole:  # a sweep-level mismatch fails every cell of the sweep
        bad = {i: "; ".join(whole) for i in range(outcome.attempted)}
    outcome.failures = list(bad.values())
    return outcome


def check_wide_bn(out_dir: Path, config: dict, variant: int) -> Outcome:
    report = json.loads((out_dir / "sweep_report.json").read_text(encoding="utf-8"))
    outcome = Outcome(attempted=len(report["cells"]), work={"checkpoints": 0, "sgd_steps": 0},
                      verdicts=report["verdicts"])
    n_bn = len(config["model"]["layer_sizes"]) - 2

    def bn_logged(i, cell, records):
        if any(r.bn_gamma_norms is None or len(r.bn_gamma_norms) != n_bn for r in records):
            return f"cell {i}: bn_gamma_norms missing from a checkpoint"
        return None

    outcome.failures = list(_check_sweep_cells(out_dir, config, report, outcome, bn_logged).values())
    return outcome


def _csv_rows(path: Path) -> list:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_quadratic_mc(out_dir: Path, config: dict, variant: int) -> Outcome:
    mc = config["monte_carlo"]
    outcome = Outcome(attempted=1, work={"traj_steps": mc["cases"] * mc["n_traj"] * mc["steps"]})
    problems = []
    n = config["curvatures"]["count"]
    table = _csv_rows(out_dir / "breakeven_table.csv")
    expected = [(eta, s) for eta in config["etas"] for s in config["batch_sizes"]]
    if [(float(r["eta"]), int(r["batch_size"])) for r in table] != expected:
        problems.append("breakeven_table.csv rows do not match the config grid")
    for row in table:
        want = breakeven_curvature_closed_form(
            float(row["eta"]), int(row["batch_size"]), n, config["alpha"], config["psi"]
        )
        if not _close(float(row["lambda_breakeven"]), want.value, CLOSED_FORM_RTOL) or int(
            row["no_stable_curvature"]
        ) != int(want.no_stable_curvature):
            problems.append(f"breakeven_table.csv row {row} != closed form {want}")
    mc_rows = _csv_rows(out_dir / "mc_validation.csv")
    if len(mc_rows) != mc["cases"]:
        problems.append(f"mc_validation.csv has {len(mc_rows)} rows, expected {mc['cases']}")
    for row in mc_rows:
        if not float(row["abs_diff"]) <= MC_ABS_DIFF_BOUND:
            problems.append(f"mc case {row['case']}: abs_diff {row['abs_diff']} > {MC_ABS_DIFF_BOUND}")
    growth = _csv_rows(out_dir / "growth_dynamics.csv")
    if len(growth) != len(expected):
        problems.append("growth_dynamics.csv row count does not match the config grid")
    for row in growth:
        if row["flipped"] != "1":
            problems.append(f"growth cell eta={row['eta']} s={row['batch_size']} did not flip")
        else:
            outcome.work["schedule_steps"] = outcome.work.get("schedule_steps", 0) + int(row["step_of_breakeven"])
    if problems:
        outcome.failures = ["; ".join(problems)]
    return outcome


CHECKS = {
    "desk_spectral": check_desk_spectral,
    "wide_bn": check_wide_bn,
    "quadratic_mc": check_quadratic_mc,
}
