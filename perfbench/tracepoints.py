"""Where the traced run records spans, and the per-layer metrics it derives.

Each patch point names the module namespace the caller looks the function up
in, so a function bound into several modules is patched in each (``grad`` is
called from ``trainer``, from ``spectra`` and, inside ``hvp_fd``, from
``netmodel`` itself). ``hessian_operator`` builds lambdas that resolve
``hvp_pearlmutter`` / ``hvp_fd`` in ``netmodel`` at call time, so those are
patched there. The layers ``svg`` (no workload runs ``report``), ``rng`` and
``errors`` (no work of their own) are not traced.

Per-layer metrics are reported per traced operation call (one ``main([...])``
invocation), so they do not depend on how many calls fit in a run.
"""

from __future__ import annotations

from spans import Tracer, aggregate, count_with_parent, overhead_frac


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _examples(args, kwargs, result):
    return {"examples": _arg(args, kwargs, 2, "batch").size}


def _grad_counts(args, kwargs, result):
    # forward (2 flops per weight per example) plus backward (4: input and
    # weight gradients); computed from layer sizes, not measured
    spec = _arg(args, kwargs, 0, "spec")
    n = _arg(args, kwargs, 2, "batch").size
    sizes = spec.layer_sizes
    weights = sum(a * b for a, b in zip(sizes, sizes[1:]))
    return {"examples": n, "gflop_computed": 6.0 * weights * n / 1e9}


def _dim(args, kwargs, result):
    return {"dim": _arg(args, kwargs, 0, "a").dim}


def _traj_steps(args, kwargs, result):
    return {"traj_steps": _arg(args, kwargs, 3, "steps") * _arg(args, kwargs, 4, "n_traj")}


def _schedule_steps(args, kwargs, result):
    steps = result.step_of_breakeven if result.flipped else _arg(args, kwargs, 4, "max_steps")
    return {"schedule_steps": steps}


# (module, attribute, span name, counter)
PATCH_POINTS = (
    ("breakeven.cli", "make_dataset", "datasets.make_dataset", None),
    ("breakeven.cli", "sweep", "trainer.sweep", None),
    ("breakeven.cli", "metric_log_lines", "trainer.metric_log_lines", None),
    ("breakeven.cli", "phase_diagram", "quadratic.phase_diagram", None),
    ("breakeven.cli", "run_growth_dynamics", "quadratic.run_growth_dynamics", _schedule_steps),
    ("breakeven.cli", "ensemble_second_moments", "quadratic.ensemble_second_moments", _traj_steps),
    ("breakeven.cli", "fit_growth_rate", "quadratic.fit_growth_rate", None),
    ("breakeven.trainer", "run_training", "trainer.run_training", None),
    ("breakeven.trainer", "sgd_step", "trainer.sgd_step", None),
    ("breakeven.trainer", "delta_loss", "trainer.delta_loss", None),
    ("breakeven.trainer", "init_params", "netmodel.init_params", None),
    ("breakeven.trainer", "forward_loss", "netmodel.forward_loss", _examples),
    ("breakeven.trainer", "grad", "netmodel.grad", _grad_counts),
    ("breakeven.trainer", "bn_batch_statistics", "netmodel.bn_batch_statistics", None),
    ("breakeven.trainer", "sample_minibatch_gradients", "spectra.sample_minibatch_gradients", None),
    ("breakeven.trainer", "gram_from_gradients", "spectra.gram_from_gradients", None),
    ("breakeven.trainer", "k_spectrum", "spectra.k_spectrum", None),
    ("breakeven.trainer", "k_top_eigvecs", "spectra.k_top_eigvecs", None),
    ("breakeven.trainer", "hessian_spectrum", "spectra.hessian_spectrum", None),
    ("breakeven.trainer", "grad_subspace_ratio", "spectra.grad_subspace_ratio", None),
    ("breakeven.spectra", "grad", "netmodel.grad", _grad_counts),
    ("breakeven.spectra", "jacobi_eigh", "linalg.jacobi_eigh", _dim),
    ("breakeven.spectra", "lanczos_topk", "linalg.lanczos_topk", None),
    ("breakeven.linalg", "jacobi_eigh", "linalg.jacobi_eigh", _dim),
    ("breakeven.netmodel", "grad", "netmodel.grad", _grad_counts),
    ("breakeven.netmodel", "hvp_pearlmutter", "netmodel.hvp_pearlmutter", None),
    ("breakeven.netmodel", "hvp_fd", "netmodel.hvp_fd", None),
)
MAIN_SPAN = "cli.main"
GRAM_PARENTS = ("spectra.k_spectrum", "spectra.k_top_eigvecs")
HVP_SPANS = ("netmodel.hvp_pearlmutter", "netmodel.hvp_fd")

# metric name -> (unit, span names it reads). Derived counters are filled in
# by layer_metrics; the rest are "<span name>.<calls|self_s|failed|counter>".
LAYER_METRICS = {
    "linalg.jacobi_eigh.calls": ("count", ("linalg.jacobi_eigh",)),
    "linalg.jacobi_eigh.self_s": ("s", ("linalg.jacobi_eigh",)),
    "linalg.jacobi_eigh.dim_mean": ("count", ("linalg.jacobi_eigh",)),
    "linalg.lanczos_topk.calls": ("count", ("linalg.lanczos_topk",)),
    "linalg.lanczos_topk.self_s": ("s", ("linalg.lanczos_topk",)),
    "linalg.lanczos_topk.matvecs": ("count", ("linalg.lanczos_topk",) + HVP_SPANS),
    "spectra.sample_minibatch_gradients.self_s": ("s", ("spectra.sample_minibatch_gradients",)),
    "spectra.gram_from_gradients.self_s": ("s", ("spectra.gram_from_gradients",)),
    "spectra.k_spectrum.self_s": ("s", ("spectra.k_spectrum",)),
    "spectra.k_top_eigvecs.self_s": ("s", ("spectra.k_top_eigvecs",)),
    "spectra.k_top_eigvecs.failed": ("count", ("spectra.k_top_eigvecs",)),
    "spectra.hessian_spectrum.self_s": ("s", ("spectra.hessian_spectrum",)),
    "spectra.grad_subspace_ratio.self_s": ("s", ("spectra.grad_subspace_ratio",)),
    "spectra.gram_eigh_per_checkpoint": ("count", ("linalg.jacobi_eigh",) + GRAM_PARENTS),
    "netmodel.grad.calls": ("count", ("netmodel.grad",)),
    "netmodel.grad.self_s": ("s", ("netmodel.grad",)),
    "netmodel.grad.examples": ("count", ("netmodel.grad",)),
    "netmodel.grad.gflop_computed": ("GFLOP", ("netmodel.grad",)),
    "netmodel.forward_loss.self_s": ("s", ("netmodel.forward_loss",)),
    "netmodel.forward_loss.examples": ("count", ("netmodel.forward_loss",)),
    "netmodel.bn_batch_statistics.self_s": ("s", ("netmodel.bn_batch_statistics",)),
    "netmodel.init_params.self_s": ("s", ("netmodel.init_params",)),
    "netmodel.hvp_pearlmutter.calls": ("count", ("netmodel.hvp_pearlmutter",)),
    "netmodel.hvp_pearlmutter.self_s": ("s", ("netmodel.hvp_pearlmutter",)),
    "netmodel.hvp_fd.calls": ("count", ("netmodel.hvp_fd",)),
    "netmodel.hvp_fd.self_s": ("s", ("netmodel.hvp_fd",)),
    "trainer.run_training.calls": ("count", ("trainer.run_training",)),
    "trainer.run_training.self_s": ("s", ("trainer.run_training",)),
    "trainer.sgd_step.calls": ("count", ("trainer.sgd_step",)),
    "trainer.sgd_step.self_s": ("s", ("trainer.sgd_step",)),
    "trainer.delta_loss.self_s": ("s", ("trainer.delta_loss",)),
    "trainer.metric_log_lines.self_s": ("s", ("trainer.metric_log_lines",)),
    "trainer.sweep.self_s": ("s", ("trainer.sweep",)),
    "trainer.checkpoints": ("count", ()),
    "quadratic.ensemble_second_moments.calls": ("count", ("quadratic.ensemble_second_moments",)),
    "quadratic.ensemble_second_moments.self_s": ("s", ("quadratic.ensemble_second_moments",)),
    "quadratic.ensemble_second_moments.traj_steps": ("count", ("quadratic.ensemble_second_moments",)),
    "quadratic.run_growth_dynamics.self_s": ("s", ("quadratic.run_growth_dynamics",)),
    "quadratic.run_growth_dynamics.schedule_steps": ("count", ("quadratic.run_growth_dynamics",)),
    "quadratic.phase_diagram.self_s": ("s", ("quadratic.phase_diagram",)),
    "quadratic.fit_growth_rate.self_s": ("s", ("quadratic.fit_growth_rate",)),
    "cli.main.self_s": ("s", (MAIN_SPAN,)),
    "cli.bytes_written": ("B", ()),
    "datasets.make_dataset.self_s": ("s", ("datasets.make_dataset",)),
    "trace.overhead_frac": ("frac", ()),
    "trace.missing": ("count", ()),
}


def install(tracer: Tracer) -> None:
    for module, attr, name, counts in PATCH_POINTS:
        tracer.patch(module, attr, name, counts)


def missing_spans(tracer: Tracer) -> set:
    """Span names with at least one patch point that could not be found."""
    gone = set(tracer.missing)
    return {name for module, attr, name, _ in PATCH_POINTS if f"{module}.{attr}" in gone}


def layer_metrics(tracer: Tracer, calls: int, checkpoints: float, bytes_written: float,
                  traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics per traced call: metric name -> (value, unit).

    Metrics that read a span with a missing patch point are left out rather
    than reported as zero; ``trace.missing`` counts the missing patch points.
    """
    stats = aggregate(tracer.spans)
    incomplete = missing_spans(tracer)
    derived = {
        "spectra.gram_eigh_per_checkpoint": (
            count_with_parent(tracer.spans, "linalg.jacobi_eigh", GRAM_PARENTS) / checkpoints
            if checkpoints else 0.0
        ),
        "linalg.lanczos_topk.matvecs": sum(
            count_with_parent(tracer.spans, hvp, ("linalg.lanczos_topk",)) for hvp in HVP_SPANS
        ) / calls,
        "trainer.checkpoints": checkpoints / calls,
        "cli.bytes_written": bytes_written / calls,
        "trace.overhead_frac": overhead_frac(traced_wall, untraced_wall),
        "trace.missing": float(len(tracer.missing)),
    }
    out = {}
    for metric, (unit, reads) in LAYER_METRICS.items():
        if incomplete.intersection(reads):
            continue
        if metric in derived:
            out[metric] = (derived[metric], unit)
            continue
        span_name, key = metric.rsplit(".", 1)
        st = stats.get(span_name)
        if key == "dim_mean":
            value = st.counts["dim"] / st.calls if st else 0.0
        elif st is None:
            value = 0.0
        elif key in ("calls", "self_s", "failed"):
            value = getattr(st, key) / calls
        else:
            value = st.counts[key] / calls
        out[metric] = (value, unit)
    return out

