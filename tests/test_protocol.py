import csv
import math

import numpy as np
import pytest

from lcsim.circle import TWO_PI
from lcsim.protocol import (
    Detections,
    Emissions,
    EmptyCoincidenceError,
    ExperimentConfig,
    StationConfig,
    chsh_estimate,
    correlation_dp,
    correlation_standard,
    correlation_weighted,
    match_coincidences,
    run_experiment,
    run_source,
    run_station,
    run_trial,
    summarize,
    write_event_log,
)

N_MC = 100_000


def sawtooth(d: float) -> float:
    dist = min(d % TWO_PI, TWO_PI - d % TWO_PI)
    return -1.0 + 2.0 * dist / math.pi


def three_sigma(estimate) -> float:
    return 3.0 * estimate.stderr


class TestSource:
    def test_deterministic(self):
        e1 = run_source(3, seed=42)
        e2 = run_source(3, seed=42)
        assert np.array_equal(e1.ticks, e2.ticks)
        assert np.array_equal(e1.s, e2.s)

    def test_ticks_and_range(self):
        e = run_source(1000, seed=1)
        assert np.array_equal(e.ticks, np.arange(1000))
        assert np.all((e.s >= 0.0) & (e.s < TWO_PI))

    def test_uniform_law(self):
        for seed in (0, 99):
            e = run_source(N_MC, seed=seed)
            assert abs(np.mean(np.cos(e.s))) < 4.0 / math.sqrt(N_MC)

    def test_zero_pairs_rejected(self):
        with pytest.raises(ValueError):
            run_source(0, seed=1)


class TestStation:
    def test_zero_acceptance_at_orthogonal_phase(self):
        e = run_source(5000, seed=3)
        emissions = Emissions(ticks=e.ticks, s=np.full(len(e), 1.0 + math.pi / 2))
        cfg = StationConfig(side=1, setting=1.0, mode="acceptance", seed=8)
        assert len(run_station(cfg, emissions)) == 0

    def test_full_acceptance_at_aligned_phase(self):
        e = run_source(500, seed=3)
        emissions = Emissions(ticks=e.ticks, s=np.full(len(e), 2.0))
        cfg = StationConfig(side=1, setting=2.0, mode="acceptance", seed=8)
        out = run_station(cfg, emissions)
        assert len(out) == 500
        assert np.all(out.values == 1)

    def test_always_detect_keeps_everything(self):
        e = run_source(1234, seed=4)
        out = run_station(StationConfig(side=2, setting=0.3, seed=9), e)
        assert len(out) == 1234
        assert out.weights is None

    def test_offset_shifts_ticks(self):
        e = run_source(10, seed=4)
        out = run_station(StationConfig(side=1, setting=0.0, seed=1, offset=5), e)
        assert np.array_equal(out.ticks, e.ticks + 5)

    def test_acceptance_rate_matches_cosine_mass(self):
        e = run_source(N_MC, seed=11)
        out = run_station(StationConfig(side=1, setting=0.7, mode="acceptance", seed=12), e)
        rate = len(out) / len(e)
        sigma = math.sqrt((2 / math.pi) * (1 - 2 / math.pi) / len(e))
        assert abs(rate - 2 / math.pi) < 4 * sigma

    def test_weights_vanish_at_orthogonal_phase(self):
        e = run_source(4, seed=2)
        emissions = Emissions(ticks=e.ticks, s=np.full(4, math.pi / 2))
        cfg = StationConfig(side=1, setting=0.0, seed=1, emit_weight=True)
        out = run_station(cfg, emissions)
        assert np.all(out.weights < 1e-15)

    def test_acceptance_with_weights_rejected(self):
        with pytest.raises(ValueError):
            StationConfig(side=1, setting=0.0, mode="acceptance", emit_weight=True)


class TestMatcher:
    def make(self, ticks, values):
        return Detections(ticks=np.asarray(ticks, dtype=np.int64), values=np.asarray(values, dtype=np.int8))

    def test_disjoint(self):
        _, f1, f2 = match_coincidences(self.make([1, 2], [1, 1]), self.make([3, 4], [1, 1]))
        assert f1.size == 0

    def test_identical(self):
        t, f1, f2 = match_coincidences(self.make([1, 2, 3], [1, -1, 1]), self.make([1, 2, 3], [-1, -1, 1]))
        assert np.array_equal(t, [1, 2, 3])
        assert np.array_equal(f1, [1, -1, 1])

    def test_partial_overlap(self):
        t, f1, f2 = match_coincidences(
            self.make([1, 2, 3], [1, -1, 1]), self.make([2, 3, 4], [1, -1, 1])
        )
        assert np.array_equal(t, [2, 3])
        assert np.array_equal(f1, [-1, 1])
        assert np.array_equal(f2, [1, -1])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            match_coincidences(self.make([2, 1], [1, 1]), self.make([1], [1]))


class TestEstimators:
    def test_dp_perfect_anticorrelation(self):
        est = correlation_dp(np.array([1, 1, 1]), np.array([-1, -1, -1]))
        assert est.value == -1.0
        assert est.kind == "coincidence"

    def test_dp_balanced(self):
        est = correlation_dp(np.array([1, -1]), np.array([1, 1]))
        assert est.value == 0.0
        assert est.n == 2

    def test_dp_empty_raises(self):
        with pytest.raises(EmptyCoincidenceError):
            correlation_dp(np.array([]), np.array([]))

    def test_standard_small(self):
        d1 = Detections(np.array([1, 2]), np.array([1, -1]))
        d2 = Detections(np.array([1, 2]), np.array([1, 1]))
        assert correlation_standard(d1, d2).value == 0.0

    def test_standard_tick_mismatch(self):
        d1 = Detections(np.array([1, 2]), np.array([1, -1]))
        d2 = Detections(np.array([1, 3]), np.array([1, 1]))
        with pytest.raises(ValueError, match="tick mismatch"):
            correlation_standard(d1, d2)

    def test_standard_equal_settings_exact(self):
        # Every pair is anti-correlated pointwise, so the mean is exactly -1.
        cfg = ExperimentConfig(n=10_000, a=1.3, b=1.3, mode="standard")
        summary = run_experiment(cfg)
        assert summary.estimate.value == -1.0
        assert summary.estimate.stderr == 0.0

    def test_standard_right_angle(self):
        cfg = ExperimentConfig(n=N_MC, a=0.0, b=math.pi / 2, mode="standard")
        est = run_experiment(cfg).estimate
        assert abs(est.value - 0.0) < three_sigma(est)

    def test_standard_matches_sawtooth(self):
        for b in (0.5, 2.0, 4.5):
            cfg = ExperimentConfig(n=N_MC, a=0.0, b=b, mode="standard")
            est = run_experiment(cfg).estimate
            assert abs(est.value - sawtooth(b)) < three_sigma(est) + 1e-9

    def test_weighted_equal_settings(self):
        cfg = ExperimentConfig(n=N_MC, a=0.9, b=0.9, mode="weighted")
        est = run_experiment(cfg).estimate
        assert est.kind == "weighted"
        assert abs(est.value - (-1.0)) < three_sigma(est)

    def test_weighted_right_angle(self):
        cfg = ExperimentConfig(n=N_MC, a=0.0, b=math.pi / 2, mode="weighted")
        est = run_experiment(cfg).estimate
        assert abs(est.value) < three_sigma(est)

    def test_weighted_needs_exactly_one_weighted_side(self):
        d1 = Detections(np.array([1]), np.array([1]))
        d2 = Detections(np.array([1]), np.array([1]))
        with pytest.raises(ValueError, match="weights"):
            correlation_weighted(d1, d2)

    @pytest.mark.parametrize("estimator", [correlation_standard, correlation_weighted])
    def test_fully_matched_estimators_reject_empty_lists(self, estimator):
        empty = Detections(np.array([], dtype=np.int64), np.array([], dtype=np.int8), np.array([]))
        with pytest.raises(ValueError, match="empty"):
            estimator(empty, Detections(empty.ticks, empty.values))


class TestExperiment:
    def test_coincidence_run(self):
        cfg = ExperimentConfig(n=N_MC, a=0.0, b=math.pi / 4)
        summary = run_experiment(cfg)
        est = summary.estimate
        assert est.kind == "coincidence"
        assert abs(est.value - (-math.cos(math.pi / 4))) < three_sigma(est)
        sigma_rate = math.sqrt((2 / math.pi) * (1 - 2 / math.pi) / cfg.n)
        assert abs(summary.coincidence_rate - 2 / math.pi) < 4 * sigma_rate
        assert summary.detections2 == cfg.n

    def test_conditioned_quadrant_frequency(self):
        cfg = ExperimentConfig(n=N_MC, a=0.2, b=0.2 + 1.1)
        _, r1, r2 = run_trial(cfg)
        _, f1, f2 = match_coincidences(r1, r2)
        freq = float(np.mean((f1 == 1) & (f2 == -1)))
        p = 0.5 * math.cos(1.1 / 2) ** 2
        sigma = math.sqrt(p * (1 - p) / f1.size)
        assert abs(freq - p) <= 3 * sigma

    def test_estimator_consistency(self):
        for b in TWO_PI * np.arange(8) / 8 + 0.03:
            b = float(b)
            est_c = run_experiment(ExperimentConfig(n=N_MC, a=0.0, b=b, mode="coincidence")).estimate
            est_w = run_experiment(ExperimentConfig(n=N_MC, a=0.0, b=b, mode="weighted")).estimate
            combined = 3 * math.hypot(est_c.stderr, est_w.stderr)
            assert abs(est_c.value - est_w.value) < combined
            assert abs(est_c.value - (-math.cos(b))) < three_sigma(est_c)

    def test_offset_is_statistically_inert(self):
        # Shifting every measurement tick by the same amount cannot change
        # which pairs coincide, hence not the estimate either.
        base = dict(n=30_000, a=0.0, b=1.1, source_seed=41, station1_seed=42, station2_seed=43)
        s1 = run_experiment(ExperimentConfig(offset=1, **base))
        s5 = run_experiment(ExperimentConfig(offset=5, **base))
        assert s1.estimate == s5.estimate
        assert s1.coincidences == s5.coincidences

    def test_weight_side_two_equivalent_statistics(self):
        est = run_experiment(ExperimentConfig(n=N_MC, a=0.4, b=1.2, weight_side=2)).estimate
        assert abs(est.value - (-math.cos(0.8))) < three_sigma(est)

    def test_chsh_coincidence_violates(self):
        result = chsh_estimate(N_MC, base_seed=7)
        assert result["chsh"] > 2.7

    def test_chsh_standard_classical(self):
        result = chsh_estimate(N_MC, mode="standard", base_seed=7)
        assert result["chsh"] <= 2.0 + 0.02
        assert result["chsh"] >= 1.9

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=0, a=0.0, b=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=1, a=0.0, b=0.0, mode="telepathic")
        with pytest.raises(ValueError):
            ExperimentConfig(n=1, a=0.0, b=0.0, weight_side=3)

    def test_last_tick_fits_int64(self):
        top = 2**63 - 1
        assert ExperimentConfig(n=10, a=0.0, b=0.0, offset=top - 9).offset == top - 9
        with pytest.raises(ValueError, match="int64"):
            ExperimentConfig(n=10, a=0.0, b=0.0, offset=top - 8)
        with pytest.raises(ValueError, match="int64"):
            ExperimentConfig(n=10, a=0.0, b=0.0, offset=10**20)
        assert StationConfig(side=1, setting=0.0, offset=top).offset == top
        with pytest.raises(ValueError, match="int64"):
            StationConfig(side=2, setting=0.0, offset=top + 1)

    def test_summarize_is_the_rest_of_run_experiment(self):
        for mode in ("coincidence", "weighted", "standard"):
            cfg = ExperimentConfig(n=5_000, a=0.2, b=1.9, mode=mode)
            _, r1, r2 = run_trial(cfg)
            assert summarize(cfg, r1, r2) == run_experiment(cfg)


class TestLocality:
    def test_station1_blind_to_station2_setting(self):
        base = dict(n=50_000, a=0.3, source_seed=5, station1_seed=6, station2_seed=7)
        _, r1a, _ = run_trial(ExperimentConfig(b=0.9, **base))
        _, r1b, _ = run_trial(ExperimentConfig(b=2.5, **base))
        assert np.array_equal(r1a.ticks, r1b.ticks)
        assert np.array_equal(r1a.values, r1b.values)

    def test_emissions_blind_to_all_settings(self):
        e1, _, _ = run_trial(ExperimentConfig(n=1000, a=0.1, b=0.2, source_seed=5))
        e2, _, _ = run_trial(ExperimentConfig(n=1000, a=2.1, b=4.2, source_seed=5))
        assert np.array_equal(e1.s, e2.s)

    def test_conditioned_marginal_flat_in_b(self):
        for b in TWO_PI * np.arange(4) / 4 + 0.1:
            cfg = ExperimentConfig(n=N_MC, a=0.6, b=float(b))
            _, r1, r2 = run_trial(cfg)
            _, f1, _ = match_coincidences(r1, r2)
            share = float(np.mean(f1 == 1))
            sigma = math.sqrt(0.25 / f1.size)
            assert abs(share - 0.5) <= 3 * sigma

    def test_summary_reproducible(self):
        cfg = ExperimentConfig(n=20_000, a=0.0, b=1.0)
        assert run_experiment(cfg).to_dict() == run_experiment(cfg).to_dict()


class TestEventLog:
    def test_columns_and_hidden_flag(self, tmp_path):
        cfg = ExperimentConfig(n=50, a=0.0, b=1.0)
        emissions, r1, r2 = run_trial(cfg)

        plain = tmp_path / "events.csv"
        write_event_log(plain, cfg, emissions, r1, r2)
        with open(plain) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tick", "side", "value"]
        assert len(rows) - 1 == len(r1) + len(r2)

        debug = tmp_path / "debug.csv"
        write_event_log(debug, cfg, emissions, r1, r2, debug_hidden=True)
        with open(debug) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tick", "side", "s_hidden", "value"]
        # The hidden column round-trips the emission configuration.
        tick, side, s_hidden, value = rows[1]
        assert float(s_hidden) == pytest.approx(emissions.s[int(tick) - cfg.offset])
