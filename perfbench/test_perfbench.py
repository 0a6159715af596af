"""Tests of the benchmark's own tracing: self-time arithmetic, wrapper
restore, and agreement of BENCHMARK.json with the metric definitions.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import layers
import tracing
from lcsim import lcmeasure, models, protocol, uniqueness
from workloads import WORKLOADS


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3].
    name_ids = [0, 1, 2, 1]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    got = tracing.self_times(name_ids, parents, starts, ends, 3)
    # root 10 - 3 - 1; the two spans named 1 give (3 - 1) + 1; c has no children
    np.testing.assert_allclose(got, [6.0, 3.0, 1.0])
    assert got.sum() == pytest.approx(10.0)  # self times partition the root


def test_wrapped_calls_give_spans_counts_and_self_time():
    clock = itertools.count()  # each reading advances the clock by one second
    tracer = tracing.Tracer(clock=lambda: float(next(clock)))

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap(inner, "inner", lambda t, out, x: t.counts.update(items=out))

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x)

    with tracer.span("root"):
        assert tracer.wrap(outer, "outer")(2) == 6
        assert tracer.within("root") and tracer.within("outer") is False
    totals = tracer.totals()
    # readings: root 0, outer 1, inner 2-3, inner 4-5, outer 6, root 7
    assert totals["inner"] == (2, 2.0)
    assert totals["outer"] == (1, 3.0)
    assert totals["root"] == (1, 2.0)
    assert tracer.counts["items"] == 6

    tracer.reset()
    assert tracer.totals() == {name: (0, 0.0) for name in totals}


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert not tracer.within("boom")
    assert tracer.totals()["boom"][0] == 1
    tracer.reset()  # no span left open


def test_patched_restores_every_binding_also_on_error():
    tracer = tracing.Tracer()
    replacements = layers.instrument(tracer)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    with pytest.raises(RuntimeError):
        with tracing.patched(replacements):
            for owner, attr, original in originals:
                assert getattr(owner, attr) is not original
            # every binding of a from-imported name holds the same wrapper
            assert protocol.spin_values is lcmeasure.spin_values
            assert models.quadrant_prob_quadrature is uniqueness.quadrant_prob_quadrature
            raise RuntimeError("leave the block early")
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original
    assert "density" in vars(models.CandidateModel)


def test_traced_run_gives_the_same_output_and_exact_counts():
    plain = protocol.chsh_estimate(1000, base_seed=3)
    tracer = tracing.Tracer()
    with tracing.patched(layers.instrument(tracer)):
        traced = protocol.chsh_estimate(1000, base_seed=3)
    assert traced["chsh"] == plain["chsh"]
    metrics = layers.pass_metrics(tracer)
    assert metrics["protocol.experiment.calls"] == 4
    assert metrics["protocol.pairs_emitted"] == 4000
    assert metrics["protocol.coincidences"] == sum(s.coincidences for s in plain["runs"])
    assert metrics["protocol.station.accept.self_s"] > 0.0
    # one run: the 1000-pair source alone computes 16 bytes a pair
    assert 16_000 < metrics["protocol.bytes_computed"] < 4 * 16_000


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better, _ in layers.PER_LAYER
    ]
