"""Command-line entry point: simulate, train, sweep, report.

Configs are JSON files; flags override file values. Every output file starts
with a metadata line (JSONL/Markdown) or comment (CSV/SVG) embedding the hash
of the fully-resolved config, and rerunning a subcommand with the same
resolved config reproduces all outputs byte for byte.

Exit codes: 0 success; 1 non-fatal computational condition (diverged run, no
schedule flip); 2 config/schema problem; 3 I/O problem.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import Dataset, make_dataset
from .errors import (
    ComputationalError,
    SchemaError,
    UnknownMetricError,
    ValidationError,
)
from .netmodel import MlpSpec
from .netmodel import init_params
from .quadratic import (
    GrowthSchedule,
    QuadraticModel,
    SgdSetting,
    breakeven_curvature_closed_form,
    ensemble_second_moments,
    fit_growth_rate,
    phase_diagram,
    run_growth_dynamics,
    stability_lhs,
    stability_lhs_scalar,
)
from .rng import PRNG_ALGORITHM, make_rng
from .trainer import (
    LrSchedule,
    RunConfig,
    SpectraParams,
    breakeven_indicators,
    config_hash,
    metric_log_lines,
    parse_metric_log,
    run_training,
    save_theta_snapshot,
    summarize_run,
    sweep,
)
from .svg import Panel, Series, render_panel

EXIT_OK = 0
EXIT_COMPUTATIONAL = 1
EXIT_SCHEMA = 2
EXIT_IO = 3

SIMULATE_COLUMNS = """\
breakeven_table.csv columns:
  eta, batch_size, n, alpha, psi  hyperparameters of the cell
  lambda_breakeven                curvature at which the stability multiplier
                                  equals 1 (2/eta when batch_size == n)
  no_stable_curvature             1 when the closed form is non-positive
phase_diagram.csv columns:
  batch_size, eta                 grid cell
  lhs                             stability multiplier value
  classification                  stable | breakeven | unstable
growth_dynamics.csv columns (when "growth" is configured):
  eta, batch_size                 cell hyperparameters
  flipped                        1 when the stability predicate flipped
  step_of_breakeven               schedule step at the flip (empty if none)
  lambda_at_flip, lambda_max, psi_at_stop
mc_validation.csv columns (when "monte_carlo" is configured):
  case, eta, batch_size, n        randomized case
  lambda_h, s_squared             model mean curvature and spread
  lhs, log_lhs                    exact stability multiplier
  fitted_rate                     least-squares growth rate of the ensemble
  abs_diff                        |fitted_rate - log_lhs|
"""

TRAIN_COLUMNS = """\
metrics.jsonl: first line is a metadata object {schema_version, config,
prng_algorithm, artifact_version, config_hash}; every following line is one
instrumented checkpoint with fields:
  step, epoch                     global step and epoch of the checkpoint
  train_loss, train_acc, val_acc  full-split loss/accuracy (frozen BN stats)
  delta_loss                      training-set loss drop across the step
                                  (positive = loss reduced), null if unstable
  lambda_k1, lambda_k_star        largest / smallest-nonzero eigenvalue of the
                                  gradient covariance (Gram estimate)
  cond_ratio                      lambda_k_star / lambda_k1, null when
                                  lambda_k1 ~ 0
  trace_k                         trace of the gradient covariance
  lambda_h_top                    top Hessian eigenvalues (Lanczos), list
  g_ratio                         minibatch gradient norm over the norm of its
                                  projection onto the covariance top-5
                                  eigenvectors, null when rank-deficient
  bn_gamma_norms                  per-BN-layer gamma norms (null without BN)
  lr_current                      learning rate applied at this step
summary.json: run summary (maxima with steps, threshold epoch, first negative
delta_loss step, diverged flag, per-checkpoint covariance/Hessian ratio) plus
break-even indicators when computable.
"""

SWEEP_COLUMNS = """\
Each cell writes logs/cell_<value-index>_<seed-index>.jsonl in the train
format above. sweep_report.json holds axis values, seeds, per-cell summaries
(cells marked diverged are isolated; a failed cell's error and error_type
name why), seed-averaged maxima per axis value,
and ordinal verdicts (holds | violated | tie | undefined) for:
  variance_reduction_lambda_k1 / _lambda_h1 / _trace_k
  preconditioning_cond_ratio
"""

REPORT_COLUMNS = """\
Writes one SVG line chart per panel (panel_<i>_<metric>.svg) and summary.md
with one row of run-summary maxima per input log (plus sweep verdicts when a
sweep report is given). Panels: {"y": <metric field>, "x": "step"|"epoch",
"log_y": bool}; vertical dashed lines mark the first epoch at which training
accuracy exceeds the configured threshold.
"""


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("config", f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError("config", "top level must be an object")
    return data


def _require(cfg: dict, field: str, kind, where: str = "config"):
    if field not in cfg:
        raise SchemaError(f"{where}.{field}", "required field missing")
    value = cfg[field]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise SchemaError(f"{where}.{field}", f"expected {kind.__name__}")
    return value


def _positive(value, field: str):
    if not value > 0:
        raise SchemaError(field, "must be > 0")
    return value


# ---------------------------------------------------------------------------
# config resolution


def _build_model(raw: dict) -> MlpSpec:
    if "layer_sizes" not in raw:
        raise SchemaError("model.layer_sizes", "required field missing")
    try:
        return MlpSpec(
            layer_sizes=tuple(raw["layer_sizes"]),
            activation=raw.get("activation", "relu"),
            batch_norm=raw.get("batch_norm", False),
            loss=raw.get("loss", "softmax_cross_entropy"),
            init=raw.get("init", "gaussian_scaled"),
            init_gain=raw.get("init_gain"),
            init_constant=raw.get("init_constant", 0.0),
            seed=int(raw.get("seed", 0)),
        )
    except ValidationError as exc:
        raise SchemaError("model", str(exc)) from None


def _build_schedule(raw: dict) -> LrSchedule:
    try:
        return LrSchedule(
            kind=raw.get("kind", "constant"),
            decay_epoch=int(raw.get("decay_epoch", 0)),
            decay_factor=float(raw.get("decay_factor", 10.0)),
        )
    except ValidationError as exc:
        raise SchemaError("schedule", str(exc)) from None


def _build_spectra(raw: dict) -> SpectraParams:
    try:
        return SpectraParams(
            n_gradient_samples=int(raw.get("n_gradient_samples", 25)),
            gram_batch_size=raw.get("gram_batch_size"),
            top_k=int(raw.get("top_k", 5)),
            hvp_method=raw.get("hvp_method", "auto"),
            lanczos_iters=int(raw.get("lanczos_iters", 40)),
        )
    except ValidationError as exc:
        raise SchemaError("spectra", str(exc)) from None


def resolve_run_config(raw: dict, args) -> tuple[RunConfig, dict, int]:
    """Apply defaults and flag overrides; returns (config, dataset
    provenance, dataset seed)."""
    cfg = dict(raw)
    if args.eta is not None:
        cfg["eta"] = args.eta
    if args.batch_size is not None:
        cfg["batch_size"] = args.batch_size
    if args.momentum is not None:
        cfg["momentum"] = args.momentum
    if args.epochs is not None:
        cfg["epochs"] = args.epochs
    if args.eval_every is not None:
        cfg["eval_every"] = args.eval_every
    if args.seed is not None:
        cfg["seed"] = args.seed

    model = _build_model(_require(cfg, "model", dict))
    dataset_cfg = _require(cfg, "dataset", dict)
    dataset_seed = int(dataset_cfg.get("seed", 0))
    try:
        config = RunConfig(
            model=model,
            eta=_positive(float(_require(cfg, "eta", float)), "eta"),
            batch_size=int(_require(cfg, "batch_size", int)),
            epochs=int(_require(cfg, "epochs", int)),
            momentum=float(cfg.get("momentum", 0.0)),
            schedule=_build_schedule(cfg.get("schedule", {})),
            eval_every=int(cfg.get("eval_every", 10)),
            spectra=_build_spectra(cfg.get("spectra", {})),
            eval_subset_fraction=float(cfg.get("eval_subset_fraction", 0.05)),
            seed=int(cfg.get("seed", 0)),
            accuracy_threshold=float(cfg.get("accuracy_threshold", 0.60)),
        )
    except ValidationError as exc:
        raise SchemaError("config", str(exc)) from None
    return config, dataset_cfg, dataset_seed


def _dataset_from_config(dataset_cfg: dict, seed: int) -> Dataset:
    provenance = {k: v for k, v in dataset_cfg.items() if k != "seed"}
    return make_dataset(provenance, seed)


# ---------------------------------------------------------------------------
# simulate


def _model_from_simulate_config(cfg: dict) -> QuadraticModel:
    spec = cfg.get("curvatures", {"kind": "uniform", "low": 0.5, "high": 1.5, "count": 100, "seed": 0})
    kind = spec.get("kind", "uniform")
    count = int(spec.get("count", 100))
    if count < 2:
        raise SchemaError("curvatures.count", "need at least 2 examples")
    if kind == "uniform":
        rng = make_rng(int(spec.get("seed", 0)))
        h = rng.uniform(float(spec.get("low", 0.5)), float(spec.get("high", 1.5)), size=count)
    elif kind == "constant":
        h = np.full(count, float(spec.get("value", 1.0)))
    else:
        raise SchemaError("curvatures.kind", f"unknown kind {kind!r}")
    try:
        return QuadraticModel(curvatures=h, psi_star=float(cfg.get("psi_star", 0.0)), alpha=float(cfg.get("alpha", 0.0)))
    except ValidationError as exc:
        raise SchemaError("curvatures", str(exc)) from None


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out)
    etas = [float(e) for e in cfg.get("etas", [0.5, 0.1, 0.02])]
    batch_sizes = [int(s) for s in cfg.get("batch_sizes", [1, 10, 100])]
    alpha = float(cfg.get("alpha", 0.0))
    psi = float(cfg.get("psi", 1.0))
    model = _model_from_simulate_config(cfg)
    n = model.n
    for s in batch_sizes:
        if not 1 <= s <= n:
            raise SchemaError("batch_sizes", f"batch size {s} outside [1, {n}]")
    digest = config_hash(cfg)
    header = f"# config_hash={digest} tool=breakeven-{__version__} subcommand=simulate\n"

    lines = [header, "eta,batch_size,n,alpha,psi,lambda_breakeven,no_stable_curvature\n"]
    for eta in etas:
        for s in batch_sizes:
            res = breakeven_curvature_closed_form(eta, s, n, alpha, psi)
            lines.append(
                f"{eta!r},{s},{n},{alpha!r},{psi!r},{res.value!r},{int(res.no_stable_curvature)}\n"
            )
    _atomic_write(out / "breakeven_table.csv", "".join(lines))

    grid = cfg.get("phase_grid", {})
    grid_etas = [float(e) for e in grid.get("etas", etas)]
    grid_sizes = [int(s) for s in grid.get("batch_sizes", batch_sizes)]
    rows = phase_diagram(np.array(grid_etas), np.array(grid_sizes), model)
    lines = [header, "batch_size,eta,lhs,classification\n"]
    for i, s in enumerate(grid_sizes):
        for j, eta in enumerate(grid_etas):
            lhs = stability_lhs_scalar(model.lambda_h, model.s_squared, eta, s, n)
            lines.append(f"{s},{eta!r},{lhs!r},{rows[i][j]}\n")
    _atomic_write(out / "phase_diagram.csv", "".join(lines))

    exit_code = EXIT_OK
    growth = cfg.get("growth")
    if growth is not None:
        try:
            schedule = GrowthSchedule(
                direction=growth.get("direction", "increasing_from_stable"),
                lambda0=float(growth.get("lambda0", 0.01)),
                rho=float(growth.get("rho", 1.01)),
                psi0=float(growth.get("psi0", 1.0)),
            )
        except ValidationError as exc:
            raise SchemaError("growth", str(exc)) from None
        max_steps = _positive(int(growth.get("max_steps", 1_000_000)), "growth.max_steps")
        lines = [header, "eta,batch_size,flipped,step_of_breakeven,lambda_at_flip,lambda_max,psi_at_stop\n"]
        for eta in etas:
            for s in batch_sizes:
                res = run_growth_dynamics(SgdSetting(eta=eta, batch_size=s), schedule, alpha, n, max_steps)
                if not res.flipped:
                    exit_code = EXIT_COMPUTATIONAL
                lines.append(
                    f"{eta!r},{s},{int(res.flipped)},"
                    f"{'' if res.step_of_breakeven is None else res.step_of_breakeven},"
                    f"{'' if res.lambda_at_flip is None else repr(res.lambda_at_flip)},"
                    f"{res.lambda_max!r},{res.psi_at_stop!r}\n"
                )
        _atomic_write(out / "growth_dynamics.csv", "".join(lines))
        if exit_code and not args.quiet:
            print("warning: growth dynamics hit max_steps without a flip", file=sys.stderr)

    mc = cfg.get("monte_carlo")
    if mc is not None:
        cases = int(mc.get("cases", 5))
        steps = int(mc.get("steps", 200))
        n_traj = int(mc.get("n_traj", 10_000))
        psi0 = float(mc.get("psi0", 1.0))
        # --seed wins over monte_carlo.seed; the curvature seed keeps the model
        seed = args.seed if args.seed is not None else int(mc.get("seed", cfg.get("seed", 0)))
        rng = make_rng(seed, 100)
        lines = [header, "case,eta,batch_size,n,lambda_h,s_squared,lhs,log_lhs,fitted_rate,abs_diff\n"]
        for case in range(cases):
            case_n = int(rng.integers(30, 101))
            h = rng.uniform(0.5, 1.5, size=case_n)
            case_model = QuadraticModel(curvatures=h)
            eta = float(rng.uniform(0.01, 0.15))
            s = int(rng.integers(1, case_n + 1))
            setting = SgdSetting(eta=eta, batch_size=s)
            lhs = stability_lhs(case_model, setting)
            sm = ensemble_second_moments(case_model, setting, psi0, steps, n_traj, seed=seed + case)
            rate = fit_growth_rate(sm)
            log_lhs = float(np.log(lhs))
            lines.append(
                f"{case},{eta!r},{s},{case_n},{case_model.lambda_h!r},{case_model.s_squared!r},"
                f"{lhs!r},{log_lhs!r},{rate!r},{abs(rate - log_lhs)!r}\n"
            )
        _atomic_write(out / "mc_validation.csv", "".join(lines))

    if not args.quiet:
        print(f"simulate: wrote {out}/breakeven_table.csv, phase_diagram.csv"
              + (", growth_dynamics.csv" if growth is not None else "")
              + (", mc_validation.csv" if mc is not None else ""))
    return exit_code


# ---------------------------------------------------------------------------
# train


def _summary_payload(config: RunConfig, records, summary) -> str:
    payload = {
        "schema_version": 1,
        "config_hash": config_hash(config.to_dict()),
        "prng_algorithm": PRNG_ALGORITHM,
        "artifact_version": __version__,
        "summary": summary.to_json_dict(),
    }
    try:
        argmax_step, first_neg, r = breakeven_indicators(records)
        payload["indicators"] = {
            "argmax_lambda_k1_step": argmax_step,
            "first_negative_delta_loss_step": first_neg,
            "lambda_k1_lambda_h1_pearson": r,
        }
    except ValidationError:
        payload["indicators"] = None
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_train(args) -> int:
    raw = _load_json(args.config)
    config, dataset_cfg, dataset_seed = resolve_run_config(raw, args)
    dataset = _dataset_from_config(dataset_cfg, dataset_seed)
    out = Path(args.out)
    records, summary = run_training(config, dataset)
    _atomic_write(out / "metrics.jsonl", "\n".join(metric_log_lines(config, records)) + "\n")
    _atomic_write(out / "summary.json", _summary_payload(config, records, summary))
    if raw.get("snapshot_params"):
        save_theta_snapshot(out / "theta_init.bin", init_params(config.model))
    if not args.quiet:
        state = "diverged" if summary.diverged else "completed"
        print(f"train: {state}, {len(records)} checkpoints -> {out}/metrics.jsonl")
    return EXIT_COMPUTATIONAL if summary.diverged else EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    raw = _load_json(args.config)
    axis = _require(raw, "axis", dict)
    axis_name = _require(axis, "name", str, "axis")
    values = _require(axis, "values", list, "axis")
    seeds = [int(s) for s in raw.get("seeds", [0])]
    base, dataset_cfg, dataset_seed = resolve_run_config(raw, args)
    dataset = _dataset_from_config(dataset_cfg, dataset_seed)
    out = Path(args.out)
    try:
        report = sweep(base, dataset, axis_name, values, seeds, keep_records=True)
    except ValidationError as exc:
        raise SchemaError("axis", str(exc)) from None

    cells_payload = []
    for cell in report.cells:
        vi = values.index(cell.axis_value)
        si = seeds.index(cell.seed)
        log_name = f"logs/cell_{vi:02d}_{si:02d}.jsonl"
        if cell.records is not None:
            _atomic_write(out / log_name, "\n".join(metric_log_lines(cell.config, cell.records)) + "\n")
        cells_payload.append(
            {
                "axis_value": cell.axis_value,
                "seed": cell.seed,
                "log": log_name if cell.records is not None else None,
                "diverged": cell.diverged,
                "error": cell.error,
                "error_type": cell.error_type,
                "summary": None if cell.summary is None else cell.summary.to_json_dict(),
            }
        )
    payload = {
        "schema_version": 2,
        "config_hash": config_hash(raw),
        "prng_algorithm": PRNG_ALGORITHM,
        "artifact_version": __version__,
        "axis_name": report.axis_name,
        "axis_values": report.axis_values,
        "seeds": report.seeds,
        "seed_means": report.seed_means,
        "verdicts": report.verdicts,
        "cells": cells_payload,
    }
    _atomic_write(out / "sweep_report.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if not args.quiet:
        print(f"sweep: {len(report.cells)} cells -> {out}/sweep_report.json")
        for check, verdict in report.verdicts.items():
            print(f"  {check}: {verdict}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def _series_from_log(meta, records, metric: str, x_axis: str):
    xs, ys = [], []
    for r in records:
        xs.append(getattr(r, x_axis))
        if metric == "lambda_h1":
            ys.append(r.lambda_h_top[0] if r.lambda_h_top else None)
        else:
            ys.append(getattr(r, metric))
    return xs, ys


def cmd_report(args) -> int:
    cfg = _load_json(args.config)
    logs = _require(cfg, "logs", list)
    panels = _require(cfg, "panels", list)
    if not panels:
        raise SchemaError("panels", "need at least one panel")
    if not logs:
        raise SchemaError("logs", "need at least one log")
    out = Path(args.out)

    from .trainer import METRIC_FIELDS

    plottable = [f for f in METRIC_FIELDS if f not in ("step", "epoch", "lambda_h_top", "bn_gamma_norms")]
    plottable.append("lambda_h1")

    parsed = []
    for path in logs:
        text = Path(path).read_text(encoding="utf-8")
        meta, records = parse_metric_log(text)
        parsed.append((Path(path).stem, meta, records))

    digest = config_hash(cfg)
    svg_paths = []
    for i, panel_cfg in enumerate(panels):
        metric = _require(panel_cfg, "y", str, f"panels[{i}]")
        x_axis = panel_cfg.get("x", "step")
        if x_axis not in ("step", "epoch"):
            raise SchemaError(f"panels[{i}].x", "must be step or epoch")
        if metric not in plottable:
            raise UnknownMetricError(f"unknown metric {metric!r}; choose from {sorted(plottable)}")
        series = []
        vlines = []
        for label, meta, records in parsed:
            xs, ys = _series_from_log(meta, records, metric, x_axis)
            series.append(Series(label=label, xs=xs, ys=ys))
            threshold = meta.get("config", {}).get("accuracy_threshold", 0.6)
            marker = next(
                (r for r in records if r.train_acc is not None and r.train_acc >= threshold), None
            )
            if marker is not None and cfg.get("threshold_vlines", True):
                vlines.append((getattr(marker, x_axis), f"acc>{threshold:g}"))
        panel = Panel(
            title=panel_cfg.get("title", metric),
            x_label=x_axis,
            y_label=metric,
            series=series,
            vlines=vlines,
            log_y=bool(panel_cfg.get("log_y", False)),
        )
        svg = f"<!-- config_hash={digest} tool=breakeven-{__version__} -->\n" + render_panel(panel)
        name = f"panel_{i:02d}_{metric}.svg"
        _atomic_write(out / name, svg)
        svg_paths.append(name)

    md = [f"<!-- config_hash={digest} tool=breakeven-{__version__} -->", "", "# Run summaries", ""]
    md.append(
        "| log | max lambda_k1 | at step | max lambda_h1 | at step | max cond_ratio | at step "
        "| max trace_k | threshold epoch | first delta_loss<0 step |"
    )
    md.append("|---|---|---|---|---|---|---|---|---|---|")

    def cell(v):
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    for label, meta, records in parsed:
        threshold = meta.get("config", {}).get("accuracy_threshold", 0.6)
        summary = summarize_run(records, diverged=False, accuracy_threshold=threshold)
        md.append(
            "| "
            + " | ".join(
                [
                    label,
                    cell(summary.max_lambda_k1),
                    cell(summary.max_lambda_k1_step),
                    cell(summary.max_lambda_h1),
                    cell(summary.max_lambda_h1_step),
                    cell(summary.max_cond_ratio),
                    cell(summary.max_cond_ratio_step),
                    cell(summary.max_trace_k),
                    cell(summary.threshold_epoch),
                    cell(summary.first_negative_delta_loss_step),
                ]
            )
            + " |"
        )

    sweep_path = cfg.get("sweep_report")
    if sweep_path:
        sweep_data = _load_json(sweep_path)
        md += ["", f"## Sweep verdicts (axis: {sweep_data.get('axis_name')})", ""]
        md.append("| check | verdict |")
        md.append("|---|---|")
        for check, verdict in sorted(sweep_data.get("verdicts", {}).items()):
            md.append(f"| {check} | {verdict} |")
    _atomic_write(out / "summary.md", "\n".join(md) + "\n")
    if not args.quiet:
        print(f"report: wrote {len(svg_paths)} panel(s) and summary.md -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breakeven",
        description="SGD stability analysis and spectral trajectory instrumentation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(seed_help="override the config seed"):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--config", required=True, help="JSON config file")
        parent.add_argument("--out", required=True, help="output directory")
        parent.add_argument("--seed", type=int, default=None, help=seed_help)
        parent.add_argument("--quiet", action="store_true", help="suppress progress output")
        return parent

    overrides = argparse.ArgumentParser(add_help=False)
    overrides.add_argument("--eta", type=float, default=None, help="override learning rate")
    overrides.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    overrides.add_argument("--momentum", type=float, default=None)
    overrides.add_argument("--epochs", type=int, default=None)
    overrides.add_argument("--eval-every", dest="eval_every", type=int, default=None)

    sub.add_parser(
        "simulate",
        parents=[common(
            "override the config seed and monte_carlo.seed (the Monte-Carlo draws); "
            "curvatures.seed still defines the model"
        )],
        help="stability tables for the quadratic model",
        epilog=SIMULATE_COLUMNS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    ).set_defaults(func=cmd_simulate)
    sub.add_parser(
        "train",
        parents=[common(), overrides],
        help="one instrumented training run",
        epilog=TRAIN_COLUMNS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    ).set_defaults(func=cmd_train)
    sub.add_parser(
        "sweep",
        parents=[common(), overrides],
        help="hyperparameter sweep with ordinal verdicts",
        epilog=SWEEP_COLUMNS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    ).set_defaults(func=cmd_sweep)
    sub.add_parser(
        "report",
        parents=[common()],
        help="SVG panels and a Markdown summary from metric logs",
        epilog=REPORT_COLUMNS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    ).set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:  # includes SchemaError and UnknownMetricError
        return _fail(EXIT_SCHEMA, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ComputationalError as exc:  # includes NonFiniteError
        return _fail(EXIT_COMPUTATIONAL, str(exc))


if __name__ == "__main__":
    sys.exit(main())
