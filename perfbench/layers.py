"""Per-layer metrics of the traced run.

The layers are lcsim's modules. The traced run wraps their public functions
from outside: every binding of a wrapped function is patched, including the
names other modules bring in with `from ... import`, and the method
`CandidateModel.density`. `PER_LAYER` lists each metric with the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import os

import numpy as np

from lcsim import circle, cli, lcmeasure, models, protocol, uniqueness

# (name, unit, better, what it should move)
PER_LAYER = (
    ("protocol.source.self_s", "s", "lower", "wall_s on protocol"),
    ("protocol.station.accept.self_s", "s", "lower", "wall_s on protocol"),
    ("protocol.station.always.self_s", "s", "lower", "wall_s on protocol"),
    ("protocol.match.self_s", "s", "lower", "wall_s on protocol"),
    ("protocol.estimate.self_s", "s", "lower", "wall_s on protocol"),
    ("protocol.experiment.calls", "count", "lower", "wall_s on protocol"),
    ("protocol.experiment.self_s", "s", "lower", "wall_s on protocol"),
    ("protocol.event_log.self_s", "s", "lower", "wall_s on protocol"),
    ("protocol.event_log.rows", "count", "lower", "wall_s on protocol"),
    ("protocol.event_log.bytes", "bytes", "lower", "wall_s on protocol"),
    ("protocol.pairs_emitted", "count", "lower", "guard: must not move"),
    ("protocol.detections", "count", "lower", "guard: must not move"),
    ("protocol.coincidences", "count", "lower", "guard: must not move"),
    ("protocol.coincidence_ratio", "ratio", "higher", "guard: must not move"),
    ("protocol.bytes_computed", "bytes/run", "lower", "peak_rss_mb on protocol"),
    ("circle.spin_values.self_s", "s", "lower", "wall_s on protocol"),
    ("circle.arc_intersect.calls", "count", "lower", "wall_s on quadrature-lcmeasure"),
    ("circle.arc_intersect.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("models.quadrant_prob.calls", "count", "lower", "wall_s on quadrature-lcmeasure"),
    ("models.quadrant_prob.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("models.quadrant_table.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("models.density.evals", "count", "lower", "wall_s on quadrature-lcmeasure"),
    ("models.density.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("models.load_model.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("uniqueness.verify.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("uniqueness.reconstruct.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("uniqueness.reconstruct.cell_evals", "count", "lower", "wall_s on quadrature-lcmeasure"),
    ("uniqueness.conditions.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("lcmeasure.kernels.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("lcmeasure.kernels.entries", "count", "lower", "wall_s on quadrature-lcmeasure"),
    ("lcmeasure.markov.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("lcmeasure.triviality.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("lcmeasure.chsh.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("lcmeasure.measure_io.self_s", "s", "lower", "wall_s on quadrature-lcmeasure"),
    ("lcmeasure.measure_io.bytes", "bytes", "lower", "wall_s on quadrature-lcmeasure"),
    ("lcmeasure.cosine_family.self_s", "s", "lower", "wall_s and peak_rss_mb on quadrature-lcmeasure"),
    ("lcmeasure.cosine_family.bytes_computed", "bytes", "lower", "wall_s and peak_rss_mb on quadrature-lcmeasure"),
    ("lcmeasure.nontrivial.accept_ratio", "ratio", "higher", "wall_s on quadrature-lcmeasure"),
    ("cli.self_s", "s", "lower", "wall_s on protocol"),
    ("cli.output_bytes", "bytes", "lower", "wall_s on protocol"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
)

#: Metrics that count work; for a fixed seed they repeat exactly.
COUNTS = tuple(name for name, unit, _, _ in PER_LAYER if unit in ("count", "bytes", "bytes/run"))


def _add(t, key, value) -> None:
    t.counts[key] += int(value)


def _source(t, em, *args, **kwargs) -> None:
    _add(t, "protocol.pairs_emitted", len(em))
    _add(t, "protocol.bytes_total", em.ticks.nbytes + em.s.nbytes)


def _station(t, det, *args, **kwargs) -> None:
    _add(t, "protocol.detections", len(det))
    weights = 0 if det.weights is None else det.weights.nbytes
    _add(t, "protocol.bytes_total", det.ticks.nbytes + det.values.nbytes + weights)


def _match(t, out, *args, **kwargs) -> None:
    _add(t, "protocol.coincidences", out[0].size)
    _add(t, "protocol.bytes_total", sum(x.nbytes for x in out))


def _event_log(t, _, path, cfg, emissions, r1, r2, *args, **kwargs) -> None:
    _add(t, "protocol.event_log.rows", len(r1) + len(r2))
    _add(t, "protocol.event_log.bytes", os.path.getsize(path))


def _density(t, out, *args, **kwargs) -> None:
    _add(t, "models.density.evals", np.size(out))


def _quadrant_prob(t, *args, **kwargs) -> None:
    if t.within("uniqueness.reconstruct"):
        _add(t, "uniqueness.reconstruct.cell_evals", 1)


def _kernel(t, out, *args, **kwargs) -> None:
    _add(t, "lcmeasure.kernels.entries", out.size)


def _measure_io(t, _, path, *args, **kwargs) -> None:
    _add(t, "lcmeasure.measure_io.bytes", os.path.getsize(path))


def _cosine_family(t, out, *args, **kwargs) -> None:
    measures, obs1, obs2 = out
    arrays = [x for m in measures for x in (m.PS, m.K1, m.K2)] + [*obs1, *obs2]
    _add(t, "lcmeasure.cosine_family.bytes_computed", sum(x.nbytes for x in arrays))


def _candidate(t, *args, **kwargs) -> None:
    if t.within("lcmeasure.nontrivial"):
        _add(t, "lcmeasure.nontrivial.candidates", 1)


def _accepted(t, *args, **kwargs) -> None:
    _add(t, "lcmeasure.nontrivial.returned", 1)


def _largest_run(t, fn):
    """fn, keeping in protocol.bytes_computed the largest array bytes that
    one call of it computed."""

    def run_experiment(*args, **kwargs):
        before = t.counts["protocol.bytes_total"]
        result = fn(*args, **kwargs)
        run = t.counts["protocol.bytes_total"] - before
        t.counts["protocol.bytes_computed"] = max(t.counts["protocol.bytes_computed"], run)
        return result

    return run_experiment


def _station_name(cfg, emissions) -> str:
    accept = cfg.mode == protocol.MODE_ACCEPTANCE
    return "protocol.station.accept" if accept else "protocol.station.always"


def instrument(tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every binding the traced run patches."""
    w = tracer.wrap
    spin = w(circle.spin_values, "circle.spin_values")
    prob = w(models.quadrant_prob_quadrature, "models.quadrant_prob", _quadrant_prob)
    table = w(models.quadrant_table_quadrature, "models.quadrant_table")
    estimate = "protocol.estimate"
    return [
        (circle, "spin_values", spin),
        (protocol, "spin_values", spin),
        (lcmeasure, "spin_values", spin),
        (protocol, "run_source", w(protocol.run_source, "protocol.source", _source)),
        (protocol, "run_station", w(protocol.run_station, _station_name, _station)),
        (protocol, "match_coincidences", w(protocol.match_coincidences, "protocol.match", _match)),
        (protocol, "correlation_dp", w(protocol.correlation_dp, estimate)),
        (protocol, "correlation_weighted", w(protocol.correlation_weighted, estimate)),
        (protocol, "correlation_standard", w(protocol.correlation_standard, estimate)),
        (protocol, "run_experiment", w(_largest_run(tracer, protocol.run_experiment), "protocol.experiment")),
        (protocol, "write_event_log", w(protocol.write_event_log, "protocol.event_log", _event_log)),
        (models, "arc_intersect", w(models.arc_intersect, "circle.arc_intersect")),
        (models, "quadrant_prob_quadrature", prob),
        (uniqueness, "quadrant_prob_quadrature", prob),
        (models, "quadrant_table_quadrature", table),
        (uniqueness, "quadrant_table_quadrature", table),
        (models.CandidateModel, "density", w(models.CandidateModel.density, "models.density", _density)),
        (models, "load_model", w(models.load_model, "models.load_model")),
        (uniqueness, "verify_reproduction", w(uniqueness.verify_reproduction, "uniqueness.verify")),
        (uniqueness, "reconstruct_profile", w(uniqueness.reconstruct_profile, "uniqueness.reconstruct")),
        (uniqueness, "check_necessary_conditions",
         w(uniqueness.check_necessary_conditions, "uniqueness.conditions")),
        (lcmeasure, "stochastic_matrix", w(lcmeasure.stochastic_matrix, "lcmeasure.kernels", _kernel)),
        (lcmeasure, "random_source", w(lcmeasure.random_source, "lcmeasure.kernels", _kernel)),
        (lcmeasure, "random_observables", w(lcmeasure.random_observables, "lcmeasure.kernels", _kernel)),
        (lcmeasure, "random_trivial_measure", w(lcmeasure.random_trivial_measure, "lcmeasure.kernels")),
        (lcmeasure, "random_trivial_family", w(lcmeasure.random_trivial_family, "lcmeasure.kernels")),
        (lcmeasure, "apply_local_markov", w(lcmeasure.apply_local_markov, "lcmeasure.markov")),
        (lcmeasure, "is_trivial", w(lcmeasure.is_trivial, "lcmeasure.triviality", _candidate)),
        (lcmeasure, "chsh_discrete", w(lcmeasure.chsh_discrete, "lcmeasure.chsh")),
        (lcmeasure, "save_measure", w(lcmeasure.save_measure, "lcmeasure.measure_io", _measure_io)),
        (lcmeasure, "load_measure", w(lcmeasure.load_measure, "lcmeasure.measure_io", _measure_io)),
        (lcmeasure, "cosine_diagonal_family",
         w(lcmeasure.cosine_diagonal_family, "lcmeasure.cosine_family", _cosine_family)),
        (lcmeasure, "random_nontrivial_measure",
         w(lcmeasure.random_nontrivial_measure, "lcmeasure.nontrivial", _accepted)),
        (cli, "main", w(cli.main, "cli")),
    ]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass except trace.overhead_s."""
    totals = tracer.totals()
    c = tracer.counts
    out: dict[str, float] = {}
    for name, *_ in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = totals.get(stem, (0, 0.0))[1]
        elif kind == "calls":
            out[name] = totals.get(stem, (0, 0.0))[0]
        elif name in COUNTS:
            out[name] = c[name]
    out["protocol.coincidence_ratio"] = _ratio(c["protocol.coincidences"], c["protocol.pairs_emitted"])
    out["lcmeasure.nontrivial.accept_ratio"] = _ratio(
        c["lcmeasure.nontrivial.returned"], c["lcmeasure.nontrivial.candidates"]
    )
    return out
