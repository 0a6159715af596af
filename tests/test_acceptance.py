"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from lcsim import lcmeasure, models, protocol, uniqueness
from lcsim.circle import TWO_PI
from lcsim.lcmeasure import (
    LocalMarkovOperator,
    apply_local_markov,
    chsh_discrete,
    is_trivial,
    random_nontrivial_measure,
    random_observables,
    random_trivial_family,
    random_trivial_measure,
)
from lcsim.models import CandidateModel, Quadrant, TSIRELSON_SETTINGS


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL ({time.perf_counter() - start:.2f} s)")
        raise
    print(f"ACCEPTANCE {label}: PASS ({time.perf_counter() - start:.2f} s)")


def test_criterion_1_closed_forms():
    with criterion("1 closed-form quadrant table"):
        start = time.perf_counter()
        grid = TWO_PI * np.arange(100) / 100
        worst = 0.0
        for a in grid:
            for b in grid:
                d = b - a
                expected = {
                    Quadrant.II: 0.5 * math.cos(d / 2) ** 2,
                    Quadrant.JJ: 0.5 * math.cos(d / 2) ** 2,
                    Quadrant.IJ: 0.5 * math.sin(d / 2) ** 2,
                    Quadrant.JI: 0.5 * math.sin(d / 2) ** 2,
                }
                total = 0.0
                for q in Quadrant:
                    p = models.quadrant_prob_analytic(float(a), float(b), q)
                    worst = max(worst, abs(p - expected[q]))
                    total += p
                assert abs(total - 1.0) <= 1e-12
        assert worst <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_quadrature_fidelity():
    with criterion("2 quadrature matches closed forms"):
        start = time.perf_counter()
        m = CandidateModel.abs_cos()
        grid = TWO_PI * np.arange(32) / 32
        worst = 0.0
        for a in grid:
            for b in grid:
                for q in Quadrant:
                    err = abs(
                        models.quadrant_prob_quadrature(m, float(a), float(b), q)
                        - models.quadrant_prob_analytic(float(a), float(b), q)
                    )
                    worst = max(worst, err)
        assert worst <= 1e-8

        # Convergence: max error over a sub-grid drops every time the
        # Gauss-Legendre rule gains a node (checked where truncation still
        # dominates rounding).
        sub = TWO_PI * np.arange(8) / 8
        def max_err(nodes):
            return max(
                abs(
                    models.quadrant_table_quadrature(m, float(a), float(b), nodes)[q.index]
                    - models.quadrant_prob_analytic(float(a), float(b), q)
                )
                for a in sub
                for b in sub
                for q in Quadrant
            )

        errs = [max_err(n) for n in (2, 3, 4)]
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]
        assert time.perf_counter() - start < 10.0


def test_criterion_3_monte_carlo_protocol():
    with criterion("3 coincidence protocol statistics"):
        n = 1_000_000
        for k in range(8):
            start = time.perf_counter()
            b = TWO_PI * k / 8
            cfg = protocol.ExperimentConfig(
                n=n, a=0.0, b=b,
                source_seed=300 + 3 * k, station1_seed=301 + 3 * k, station2_seed=302 + 3 * k,
            )
            _, r1, r2 = protocol.run_trial(cfg)
            _, f1, f2 = protocol.match_coincidences(r1, r2)
            est = protocol.correlation_dp(f1, f2)
            assert abs(est.value - (-math.cos(b))) < 0.005
            rate = f1.size / n
            assert abs(rate - 2.0 / math.pi) < 0.002
            freq = float(np.mean((f1 == 1) & (f2 == -1)))
            p = 0.5 * math.cos(b / 2) ** 2
            sigma = math.sqrt(p * (1.0 - p) / f1.size)
            assert abs(freq - p) <= 3.0 * sigma + 1e-12
            assert time.perf_counter() - start < 30.0


def test_criterion_4_chsh_violation_and_protocol_distinction():
    with criterion("4 CHSH 2*sqrt(2) vs classical standard estimator"):
        n = 1_000_000
        coincidence = protocol.chsh_estimate(n, TSIRELSON_SETTINGS, mode="coincidence", base_seed=7)
        assert coincidence["chsh"] >= 2.7
        standard = protocol.chsh_estimate(n, TSIRELSON_SETTINGS, mode="standard", base_seed=7)
        assert standard["chsh"] <= 2.0 + 0.01


def test_criterion_5_trivial_chsh_bound():
    with criterion("5 trivial measures respect the CHSH bound"):
        start = time.perf_counter()
        rng = np.random.default_rng(55)
        violations = 0
        worst = -math.inf
        for _ in range(1000):
            family = random_trivial_family(rng, 64, 64, 8, 8)
            obs1 = tuple(random_observables(rng, 64) for _ in range(2))
            obs2 = tuple(random_observables(rng, 64) for _ in range(2))
            value = chsh_discrete(family, obs1, obs2)
            worst = max(worst, value)
            if value > 2.0 + 1e-9:
                violations += 1
        assert violations == 0
        assert worst <= 2.0 + 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_6_markov_transport():
    with criterion("6 local transport preserves (non)triviality"):
        start = time.perf_counter()
        rng = np.random.default_rng(66)
        dim1, dim2 = 64 * 8, 64 * 8
        for _ in range(500):
            m = random_trivial_measure(rng, 64, 64, 8, 8)
            op = LocalMarkovOperator.random_stochastic(rng, dim1, dim2)
            assert is_trivial(apply_local_markov(m, op)).max_deviation < 1e-9
        for _ in range(500):
            m = random_nontrivial_measure(rng, 64, 64, 8, 8, min_deviation=1e-3)
            op = LocalMarkovOperator.random_permutation(rng, dim1, dim2)
            out = apply_local_markov(m, op)
            assert is_trivial(out).max_deviation >= 1e-3
        assert time.perf_counter() - start < 10.0


def test_criterion_7_uniqueness_verification():
    with criterion("7 reproduction scan and profile reconstruction"):
        report = uniqueness.verify_reproduction(CandidateModel.abs_cos(), grid=32, reconstruct=False)
        assert report.reproduces
        assert report.max_quadrant_error < 1e-9

        # The two failing candidates, with the error at separation π/4 frozen
        # from the closed-form integration oracle (see test_uniqueness).
        cs_report = uniqueness.verify_reproduction(CandidateModel.cos_squared(), grid=32, reconstruct=False)
        assert not cs_report.reproduces
        cs_at_quarter = models.quadrant_prob_quadrature(
            CandidateModel.cos_squared(), 0.0, math.pi / 4, Quadrant.II
        ) - models.quadrant_prob_analytic(0.0, math.pi / 4, Quadrant.II)
        assert abs(cs_at_quarter - 0.0278007762) < 5e-4
        assert 0.0278 <= cs_report.max_quadrant_error <= 0.029

        un_report = uniqueness.verify_reproduction(CandidateModel.uniform(), grid=32, reconstruct=False)
        assert not un_report.reproduces
        un_at_quarter = models.quadrant_prob_quadrature(
            CandidateModel.uniform(), 0.0, math.pi / 4, Quadrant.II
        ) - models.quadrant_prob_analytic(0.0, math.pi / 4, Quadrant.II)
        assert abs(abs(un_at_quarter) - 0.0517766953) < 5e-4
        assert abs(un_report.max_quadrant_error - 0.0517766953) < 5e-4

        fine = uniqueness.reconstruct_profile(CandidateModel.abs_cos(), h=1e-3, samples=101)
        assert fine.sup_error < 1e-5
        coarse = uniqueness.reconstruct_profile(CandidateModel.abs_cos(), h=2e-3, samples=101)
        ratio = coarse.sup_error / fine.sup_error
        assert 3.2 <= ratio <= 4.8


def test_criterion_8_locality_audit():
    with criterion("8 structural and statistical no-signaling"):
        n = 1_000_000
        base = dict(n=n, a=0.7, source_seed=800, station1_seed=801, station2_seed=802)
        _, r1_first, _ = protocol.run_trial(protocol.ExperimentConfig(b=0.1, **base))
        for b in (1.3, 2.9, 5.5):
            _, r1_other, _ = protocol.run_trial(protocol.ExperimentConfig(b=b, **base))
            assert np.array_equal(r1_first.ticks, r1_other.ticks)
            assert np.array_equal(r1_first.values, r1_other.values)

        for k in range(8):
            b = TWO_PI * k / 8 + 0.05
            cfg = protocol.ExperimentConfig(
                n=n, a=0.7, b=b,
                source_seed=810 + 3 * k, station1_seed=811 + 3 * k, station2_seed=812 + 3 * k,
            )
            _, r1, r2 = protocol.run_trial(cfg)
            _, f1, _ = protocol.match_coincidences(r1, r2)
            share = float(np.mean(f1 == 1))
            sigma = math.sqrt(0.25 / f1.size)
            assert abs(share - 0.5) <= 3.0 * sigma
