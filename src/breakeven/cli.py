"""Command-line entry point: simulate, train, sweep, report.

Configs are JSON files; flags override file values. Each config section is
built from a frozen dataclass whose defaults are the only ones, and every key
it accepts changes an output. An unknown key, a key its section's kind does
not read, a value of the wrong type or a non-finite number
(``errors.config_value``), a sweep axis value the run config rejects or a
model, split or batch the dataset cannot train (``trainer.check_fits``)
exits 2, naming the key, before any output is written or any cell trains.
``--seed`` sets the run seed of train/sweep and ``monte_carlo.seed`` of
simulate; report draws nothing and takes none. Every output file starts with
a metadata line (JSONL/Markdown) or comment (CSV/SVG) embedding the hash of
the fully-resolved config, and rerunning a subcommand with the same resolved
config reproduces all outputs byte for byte. simulate runs its growth cells
and Monte-Carlo cases on one thread per CPU the process may use (``taskset``
limits them); each case draws from its own generator, so no output depends
on the CPU count.

Exit codes: 0 success; 1 non-fatal computational condition (diverged run, no
schedule flip); 2 config/schema problem; 3 I/O problem.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import tempfile
import typing
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .datasets import Dataset, make_dataset
from .errors import (
    ComputationalError,
    InvalidConfigError,
    SchemaError,
    UnknownMetricError,
    ValidationError,
    config_value,
)
from .quadratic import (
    GROWTH_MAX_STEPS,
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
    DERIVED_READINGS,
    LIST_FIELDS,
    METRIC_FIELDS,
    SWEEP_AXES,
    RunConfig,
    breakeven_indicators,
    check_fits,
    check_metric_records,
    config_hash,
    metric_log_lines,
    parse_metric_log,
    run_training,
    summarize_run,
    sweep,
    usable_cpus,
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


def _load_json(path: str, key: str = "config") -> dict:
    """The JSON object in ``path``; errors name ``key``, the dotted key (or
    flag) the path was given under."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(key, f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError(key, "top level must be an object")
    return data


# ---------------------------------------------------------------------------
# config resolution


def _join(path: str, name: str | None) -> str:
    return ".".join(p for p in (path, name) if p) or "config"


@contextlib.contextmanager
def _section(path: str):
    """Re-raise a package ValidationError as a SchemaError on ``path`` (or on
    the field the error names below it)."""
    try:
        yield
    except SchemaError:
        raise
    except ValidationError as exc:
        raise SchemaError(_join(path, exc.field), str(exc)) from None


def _coerce(kind, value, path: str):
    """Check one JSON value against a dataclass field type. ``int``,
    ``float``, ``str`` and ``bool`` follow ``config_value``, ``Optional``
    also takes null, a tuple a list checked element by element (a per-layer
    tuple of strs or bools also takes one value for every layer), and a
    dataclass an object built by ``_build``. Anything else is left to the
    dataclass's own checks."""
    args = typing.get_args(kind)
    if type(None) in args:
        if value is None:
            return None
        kind, args = args[0], typing.get_args(args[0])
    if dataclasses.is_dataclass(kind):
        return _build(kind, value, path)
    if kind in (int, float, str, bool):
        with _section(path):
            return config_value(kind, value)
    if typing.get_origin(kind) is tuple:
        if args[0] in (str, bool) and not isinstance(value, list):
            return _coerce(args[0], value, path)
        if not isinstance(value, list):
            raise SchemaError(path, "expected a list")
        return tuple(_coerce(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    return value


def _build(cls, raw, path: str):
    """Build the frozen dataclass ``cls`` from the JSON object ``raw``: an
    unknown key is rejected, an absent field takes the dataclass default.
    A kind-bearing dataclass declares ``KIND_KEYS = (field, {kind: keys})``,
    the keys only some kinds read; a key that the chosen kind does not read
    is rejected too."""
    if not isinstance(raw, dict):
        raise SchemaError(_join(path, None), "expected an object")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in raw.items():
        if key not in hints:
            raise SchemaError(_join(path, key), "unknown field")
        kwargs[key] = _coerce(hints[key], value, _join(path, key))
    if hasattr(cls, "KIND_KEYS"):
        field, reads = cls.KIND_KEYS
        kind = kwargs.get(field, getattr(cls, field))
        if kind in reads:  # an unknown kind is the dataclass's to reject
            unread = {key for keys in reads.values() for key in keys} - set(reads[kind])
            for key in raw:
                if key in unread:
                    raise SchemaError(_join(path, key), f"{field} {kind!r} does not read this key")
    for f in dataclasses.fields(cls):
        if f.name not in raw and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise SchemaError(_join(path, f.name), "required field missing")
    with _section(path):
        return cls(**kwargs)


# top-level keys of a train/sweep config that are not RunConfig fields;
# only sweep reads the last two, and train rejects them
_SWEEP_ONLY = ("axis", "seeds")
_RUN_EXTRAS = ("dataset",) + _SWEEP_ONLY


def resolve_run_config(raw: dict, args) -> RunConfig:
    """The run config of a train/sweep config; a flag named after a RunConfig
    field overrides it."""
    cfg = {k: v for k, v in raw.items() if k not in _RUN_EXTRAS}
    for f in dataclasses.fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            cfg[f.name] = getattr(args, f.name)
    return _build(RunConfig, cfg, "")


def _dataset_from_config(raw: dict) -> Dataset:
    cfg = raw.get("dataset")
    if not isinstance(cfg, dict):
        raise SchemaError("dataset", "expected an object")
    with _section("dataset"):
        return make_dataset(cfg, _coerce(int, cfg.get("seed", 0), "dataset.seed"))


@dataclasses.dataclass(frozen=True)
class _Axis:
    name: str
    values: list

    def __post_init__(self):
        choices = sorted(SWEEP_AXES)
        if self.name not in choices:
            raise InvalidConfigError(f"choose from {choices}", "name")


@dataclasses.dataclass(frozen=True)
class _Curvatures:
    kind: str = "uniform"
    low: float = 0.5
    high: float = 1.5
    value: float = 1.0
    count: int = 100
    seed: int = 0

    # the keys only some kinds read (_build rejects the others)
    KIND_KEYS = ("kind", {"uniform": ("low", "high", "seed"), "constant": ("value",)})

    def draw(self) -> np.ndarray:
        if self.count < 2:
            raise InvalidConfigError("need at least 2 examples", "count")
        if self.kind == "uniform":
            return make_rng(self.seed).uniform(self.low, self.high, size=self.count)
        if self.kind == "constant":
            return np.full(self.count, self.value)
        raise InvalidConfigError(f"unknown kind {self.kind!r}", "kind")


@dataclasses.dataclass(frozen=True)
class _PhaseGrid:
    etas: Optional[tuple[float, ...]] = None  # None: the config's etas
    batch_sizes: Optional[tuple[int, ...]] = None  # None: the config's batch sizes


@dataclasses.dataclass(frozen=True)
class _Growth(GrowthSchedule):
    max_steps: int = GROWTH_MAX_STEPS  # the step cap of each run


@dataclasses.dataclass(frozen=True)
class _MonteCarlo:
    cases: int = 5
    steps: int = 200
    n_traj: int = 10_000
    seed: int = 0  # --seed replaces it

    def __post_init__(self):
        if self.cases < 1:
            raise InvalidConfigError("need at least 1 case", "cases")


@dataclasses.dataclass(frozen=True)
class _SimulateConfig:
    etas: tuple[float, ...] = (0.5, 0.1, 0.02)
    batch_sizes: tuple[int, ...] = (1, 10, 100)
    alpha: float = 0.0
    psi: float = 1.0
    curvatures: _Curvatures = dataclasses.field(default_factory=_Curvatures)
    phase_grid: _PhaseGrid = dataclasses.field(default_factory=_PhaseGrid)
    growth: Optional[_Growth] = None
    monte_carlo: Optional[_MonteCarlo] = None

    def __post_init__(self):
        # alpha scales the variance s² = αλ/ψ², which cannot be negative;
        # config_value has already rejected non-finite numbers
        if self.alpha < 0.0:
            raise InvalidConfigError("must be >= 0", "alpha")
        if not self.psi * self.psi > 0.0:
            raise InvalidConfigError("must have a nonzero square", "psi")


# ---------------------------------------------------------------------------
# simulate


def _map_on_cpus(fn, items: list) -> list:
    """``[fn(item) for item in items]`` on one thread per CPU the process may
    use (``trainer.usable_cpus``, which ``taskset`` limits). numpy releases
    the GIL in the array work, so items overlap; results keep item order. The
    lowest-numbered failing item's error is raised, as a serial loop raises
    it, after the items then running have finished; items not yet started
    are cancelled."""
    from concurrent.futures import ThreadPoolExecutor  # imported here, not on every CLI start

    # an empty grid maps no items, but a pool needs at least one worker
    pool = ThreadPoolExecutor(max(1, min(len(items), usable_cpus())))
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_simulate(args) -> int:
    raw = _load_json(args.config)
    if args.seed is not None and isinstance(raw.get("monte_carlo"), dict):
        raw["monte_carlo"] = {**raw["monte_carlo"], "seed": args.seed}
    cfg = _build(_SimulateConfig, raw, "")
    out = Path(args.out)
    with _section("curvatures"):
        model = QuadraticModel(curvatures=cfg.curvatures.draw())
    n = model.n
    # the lists' entries are checked here, where the batch sizes' bound n is
    # known; learning rate 0 sits on the break-even boundary, so the grid takes it
    for key, values, ok, want in (
        ("etas", cfg.etas, lambda eta: eta > 0.0, "positive"),
        ("batch_sizes", cfg.batch_sizes, lambda s: 1 <= s <= n, f"in [1, {n}]"),
        ("phase_grid.etas", cfg.phase_grid.etas, lambda eta: eta >= 0.0, ">= 0"),
        ("phase_grid.batch_sizes", cfg.phase_grid.batch_sizes, lambda s: 1 <= s <= n, f"in [1, {n}]"),
    ):
        if values is not None and not values:
            raise SchemaError(key, "need a nonempty list")
        for i, v in enumerate(values or ()):
            if not ok(v):
                raise SchemaError(f"{key}[{i}]", f"{v!r} is not {want}")
    etas, batch_sizes, alpha, psi = cfg.etas, cfg.batch_sizes, cfg.alpha, cfg.psi
    header = f"# config_hash={config_hash(raw)} tool=breakeven-{__version__} subcommand=simulate\n"
    # every file is computed before the first is written, so an error leaves --out untouched
    outputs = {}

    lines = [header, "eta,batch_size,n,alpha,psi,lambda_breakeven,no_stable_curvature\n"]
    for eta in etas:
        for s in batch_sizes:
            res = breakeven_curvature_closed_form(eta, s, n, alpha, psi)
            lines.append(
                f"{eta!r},{s},{n},{alpha!r},{psi!r},{res.value!r},{int(res.no_stable_curvature)}\n"
            )
    outputs["breakeven_table.csv"] = lines

    grid_etas = etas if cfg.phase_grid.etas is None else cfg.phase_grid.etas
    grid_sizes = batch_sizes if cfg.phase_grid.batch_sizes is None else cfg.phase_grid.batch_sizes
    rows = phase_diagram(np.array(grid_etas), np.array(grid_sizes), model)
    lines = [header, "batch_size,eta,lhs,classification\n"]
    for i, s in enumerate(grid_sizes):
        for j, eta in enumerate(grid_etas):
            lhs = stability_lhs_scalar(model.lambda_h, model.s_squared, eta, s, n)
            lines.append(f"{s},{eta!r},{lhs!r},{rows[i][j]}\n")
    outputs["phase_diagram.csv"] = lines

    exit_code = EXIT_OK
    growth = cfg.growth
    if growth is not None:
        lines = [header, "eta,batch_size,flipped,step_of_breakeven,lambda_at_flip,lambda_max,psi_at_stop\n"]
        with _section("growth"):
            cells = [SgdSetting(eta=eta, batch_size=s) for eta in etas for s in batch_sizes]
            results = _map_on_cpus(
                lambda setting: run_growth_dynamics(setting, growth, alpha, n, growth.max_steps), cells
            )
        for setting, res in zip(cells, results):
            if not res.flipped:
                exit_code = EXIT_COMPUTATIONAL
            lines.append(
                f"{setting.eta!r},{setting.batch_size},{int(res.flipped)},"
                f"{'' if res.step_of_breakeven is None else res.step_of_breakeven},"
                f"{'' if res.lambda_at_flip is None else repr(res.lambda_at_flip)},"
                f"{res.lambda_max!r},{res.psi_at_stop!r}\n"
            )
        outputs["growth_dynamics.csv"] = lines

    mc = cfg.monte_carlo
    if mc is not None:
        # every case is drawn before any ensemble runs, so the draws keep one order
        rng = make_rng(mc.seed, 100)
        cases = []
        for case in range(mc.cases):
            case_n = int(rng.integers(30, 101))
            h = rng.uniform(0.5, 1.5, size=case_n)
            eta = float(rng.uniform(0.01, 0.15))
            s = int(rng.integers(1, case_n + 1))
            cases.append((case, QuadraticModel(curvatures=h), SgdSetting(eta=eta, batch_size=s)))

        def fitted_rate(case_item):
            case, case_model, setting = case_item
            # psi0 scales every second moment alike, so the fitted rate does not read it
            sm = ensemble_second_moments(case_model, setting, 1.0, mc.steps, mc.n_traj, seed=mc.seed + case)
            return fit_growth_rate(sm)

        with _section("monte_carlo"):
            rates = _map_on_cpus(fitted_rate, cases)
        lines = [header, "case,eta,batch_size,n,lambda_h,s_squared,lhs,log_lhs,fitted_rate,abs_diff\n"]
        for (case, case_model, setting), rate in zip(cases, rates):
            lhs = stability_lhs(case_model, setting)
            log_lhs = float(np.log(lhs))
            lines.append(
                f"{case},{setting.eta!r},{setting.batch_size},{case_model.n},{case_model.lambda_h!r},"
                f"{case_model.s_squared!r},{lhs!r},{log_lhs!r},{rate!r},{abs(rate - log_lhs)!r}\n"
            )
        outputs["mc_validation.csv"] = lines

    for name, lines in outputs.items():
        _atomic_write(out / name, "".join(lines))
    if exit_code and not args.quiet:
        print("warning: growth dynamics hit max_steps without a flip", file=sys.stderr)
    if not args.quiet:
        print(f"simulate: wrote {out}/" + ", ".join(outputs))
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
    config = resolve_run_config(raw, args)
    dataset = _dataset_from_config(raw)
    with _section(""):
        check_fits(config, dataset)
    for key in _SWEEP_ONLY:
        if key in raw:
            raise SchemaError(key, "only sweep reads this key")
    out = Path(args.out)
    records, summary = run_training(config, dataset)
    _atomic_write(out / "metrics.jsonl", "\n".join(metric_log_lines(config, records)) + "\n")
    _atomic_write(out / "summary.json", _summary_payload(config, records, summary))
    if not args.quiet:
        state = "diverged" if summary.diverged else "completed"
        print(f"train: {state}, {len(records)} checkpoints -> {out}/metrics.jsonl")
    return EXIT_COMPUTATIONAL if summary.diverged else EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    raw = _load_json(args.config)
    axis = _build(_Axis, raw.get("axis"), "axis")
    kind = typing.get_type_hints(RunConfig)[axis.name]
    values = _coerce(tuple[kind, ...], axis.values, "axis.values")
    seeds = list(_coerce(tuple[int, ...], raw.get("seeds", [0]), "seeds"))
    if not seeds:
        raise SchemaError("seeds", "need a nonempty list")
    base = resolve_run_config(raw, args)
    dataset = _dataset_from_config(raw)
    with _section(""):
        check_fits(base, dataset, batch_axis=axis.name == "batch_size")
    out = Path(args.out)
    try:
        report = sweep(base, dataset, axis.name, values, seeds)
    except ValidationError as exc:
        raise SchemaError("axis", str(exc)) from None

    cells_payload = []
    for k, cell in enumerate(report.cells):
        log_name = "logs/cell_{:02d}_{:02d}.jsonl".format(*divmod(k, len(seeds)))
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


_PLOTTABLE = tuple(f for f in METRIC_FIELDS if f not in ("step", "epoch") + LIST_FIELDS) + DERIVED_READINGS


@dataclasses.dataclass(frozen=True)
class _Panel:
    y: str
    x: str = "step"
    log_y: bool = Panel.log_y

    def __post_init__(self):
        if self.x not in ("step", "epoch"):
            raise InvalidConfigError("must be step or epoch", "x")
        if self.y not in _PLOTTABLE:
            raise UnknownMetricError(f"unknown metric {self.y!r}; choose from {sorted(_PLOTTABLE)}", "y")


@dataclasses.dataclass(frozen=True)
class _Report:
    logs: list
    panels: list
    sweep_report: Optional[str] = None

    def __post_init__(self):
        for name in ("logs", "panels"):
            if not isinstance(getattr(self, name), list) or not getattr(self, name):
                raise InvalidConfigError("need a nonempty list", name)


def cmd_report(args) -> int:
    raw = _load_json(args.config)
    cfg = _build(_Report, raw, "")
    panels = [_build(_Panel, p, f"panels[{i}]") for i, p in enumerate(cfg.panels)]
    out = Path(args.out)

    parsed = []
    for i, path in enumerate(cfg.logs):
        try:
            meta, records = parse_metric_log(Path(path).read_text(encoding="utf-8"))
            check_metric_records(records)
        except ValidationError as exc:
            raise SchemaError(f"logs[{i}]", f"{path}: {exc}") from None
        threshold = _coerce(
            float, meta.get("config", {}).get("accuracy_threshold", RunConfig.accuracy_threshold),
            f"logs[{i}].config.accuracy_threshold",
        )
        parsed.append((Path(path).stem, threshold, records))
    sweep_data = _load_json(cfg.sweep_report, "sweep_report") if cfg.sweep_report else None
    if sweep_data is not None:
        verdicts = sweep_data.get("verdicts", {})
        if not isinstance(verdicts, dict) or not all(isinstance(v, str) for v in verdicts.values()):
            raise SchemaError("sweep_report.verdicts", "expected an object of strings")

    digest = config_hash(raw)
    for i, p in enumerate(panels):
        series = []
        vlines = []
        for label, threshold, records in parsed:
            xs, ys = ([getattr(r, name) for r in records] for name in (p.x, p.y))
            series.append(Series(label=label, xs=xs, ys=ys))
            marker = next(
                (r for r in records if r.train_acc is not None and r.train_acc >= threshold), None
            )
            if marker is not None:
                vlines.append((getattr(marker, p.x), f"acc>{threshold:g}"))
        panel = Panel(
            title=p.y,
            x_label=p.x,
            y_label=p.y,
            series=series,
            vlines=vlines,
            log_y=bool(p.log_y),
        )
        svg = f"<!-- config_hash={digest} tool=breakeven-{__version__} -->\n" + render_panel(panel)
        _atomic_write(out / f"panel_{i:02d}_{p.y}.svg", svg)

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

    columns = (
        "max_lambda_k1", "max_lambda_k1_step", "max_lambda_h1", "max_lambda_h1_step", "max_cond_ratio",
        "max_cond_ratio_step", "max_trace_k", "threshold_epoch", "first_negative_delta_loss_step",
    )
    for label, threshold, records in parsed:
        summary = summarize_run(records, diverged=False, accuracy_threshold=threshold)
        md.append("| " + " | ".join([label] + [cell(getattr(summary, c)) for c in columns]) + " |")

    if sweep_data is not None:
        md += ["", f"## Sweep verdicts (axis: {sweep_data.get('axis_name')})", ""]
        md.append("| check | verdict |")
        md.append("|---|---|")
        for check, verdict in sorted(verdicts.items()):
            md.append(f"| {check} | {verdict} |")
    _atomic_write(out / "summary.md", "\n".join(md) + "\n")
    if not args.quiet:
        print(f"report: wrote {len(panels)} panel(s) and summary.md -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breakeven",
        description="SGD stability analysis and spectral trajectory instrumentation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(seed_help=None):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--config", required=True, help="JSON config file")
        parent.add_argument("--out", required=True, help="output directory")
        if seed_help is not None:
            parent.add_argument("--seed", type=int, default=None, help=seed_help)
        parent.add_argument("--quiet", action="store_true", help="suppress progress output")
        return parent

    # each override flag sets the RunConfig field it is named after, with its type
    overrides = argparse.ArgumentParser(add_help=False)
    hints = typing.get_type_hints(RunConfig)
    for name in ("eta", "batch_size", "momentum", "epochs", "eval_every"):
        overrides.add_argument("--" + name.replace("_", "-"), type=hints[name], help=f"override {name}")

    sub.add_parser(
        "simulate",
        parents=[common(
            "replace monte_carlo.seed (the Monte-Carlo draws) when that section is "
            "configured; curvatures.seed still defines the model"
        )],
        help="stability tables for the quadratic model",
        epilog=SIMULATE_COLUMNS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    ).set_defaults(func=cmd_simulate)
    sub.add_parser(
        "train",
        parents=[common("override seed"), overrides],
        help="one instrumented training run",
        epilog=TRAIN_COLUMNS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    ).set_defaults(func=cmd_train)
    sub.add_parser(
        "sweep",
        parents=[common("override seed"), overrides],
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
