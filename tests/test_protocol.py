import csv
import math

import numpy as np
import pytest

from lcsim.circle import TWO_PI
from lcsim.protocol import (
    MAX_TICK,
    CorrelationEstimate,
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


# The earlier matcher, estimator and event-log writer, kept as the references
# the numpy rewrites must match exactly.


def reference_match(r1, r2):
    common, i1, i2 = np.intersect1d(r1.ticks, r2.ticks, assume_unique=True, return_indices=True)
    return common, r1.values[i1], r2.values[i2]


def reference_estimate(products, kind):
    n = int(products.size)
    value = float(products.mean())
    stderr = float(products.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return CorrelationEstimate(value=value, n=n, stderr=stderr, kind=kind)


def reference_event_log(path, cfg, emissions, r1, r2, debug_hidden=False):
    header = ["tick", "side", "s_hidden", "value"] if debug_hidden else ["tick", "side", "value"]
    rows = []
    for side, det in ((1, r1), (2, r2)):
        for tick, value in zip(det.ticks, det.values):
            if debug_hidden:
                s_hidden = float(emissions.s[int(tick) - cfg.offset])
                rows.append((int(tick), side, f"{s_hidden:.17g}", int(value)))
            else:
                rows.append((int(tick), side, int(value)))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def increasing_ticks(rng, size, high):
    """size distinct ticks drawn from [0, high], sorted."""
    return np.unique(rng.integers(0, high, size=size, endpoint=True, dtype=np.int64))


def spins(rng, size):
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=size)


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


class TestMatcherReference:
    def assert_matches_reference(self, t1, t2, seed=0):
        rng = np.random.default_rng(seed)
        r1 = Detections(ticks=np.asarray(t1, dtype=np.int64), values=spins(rng, len(t1)))
        r2 = Detections(ticks=np.asarray(t2, dtype=np.int64), values=spins(rng, len(t2)))
        got = match_coincidences(r1, r2)
        want = reference_match(r1, r2)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    def test_empty(self):
        self.assert_matches_reference([], [])
        self.assert_matches_reference([], [0, 5, 9])
        self.assert_matches_reference([3, 4], [])

    def test_disjoint_and_identical(self):
        self.assert_matches_reference(np.arange(0, 2000, 2), np.arange(1, 2000, 2))
        ticks = np.arange(7, 5007)
        self.assert_matches_reference(ticks, ticks)

    def test_random_dense(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            n1, n2 = rng.integers(0, 3000, size=2)
            high = int(rng.integers(1, 6000))
            self.assert_matches_reference(increasing_ticks(rng, n1, high), increasing_ticks(rng, n2, high), seed)

    def test_sparse_ticks_up_to_max_tick(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            shared = increasing_ticks(rng, 500, MAX_TICK)
            t1 = np.union1d(shared, increasing_ticks(rng, 800, MAX_TICK))
            t2 = np.union1d(shared[::2], increasing_ticks(rng, 300, MAX_TICK))
            self.assert_matches_reference(np.union1d(t1, [0, MAX_TICK]), t2, seed)
        self.assert_matches_reference([0, MAX_TICK], [0, MAX_TICK])
        self.assert_matches_reference([0, MAX_TICK - 1], [1, MAX_TICK])

    def test_experiment_streams(self):
        for mode in ("coincidence", "weighted", "standard"):
            for weight_side in (1, 2):
                cfg = ExperimentConfig(n=20_000, a=0.3, b=2.0, mode=mode, weight_side=weight_side, offset=7)
                _, r1, r2 = run_trial(cfg)
                got = match_coincidences(r1, r2)
                for g, w in zip(got, reference_match(r1, r2)):
                    assert g.tobytes() == w.tobytes()


class TestEstimatorReference:
    """Multiplying the int8 spins directly leaves mean and stderr bitwise
    equal to the float products."""

    @pytest.mark.parametrize("weight_side", [1, 2])
    def test_bitwise_equal_to_float_products(self, weight_side):
        for a, b in ((0.0, 0.7), (1.3, 1.3), (0.2, 2.9)):
            cfg = ExperimentConfig(n=30_001, a=a, b=b, weight_side=weight_side)
            _, r1, r2 = run_trial(cfg)
            _, f1, f2 = match_coincidences(r1, r2)
            want = reference_estimate(f1.astype(float) * f2.astype(float), "coincidence")
            assert correlation_dp(f1, f2) == want

            cfg = ExperimentConfig(n=30_001, a=a, b=b, mode="standard", weight_side=weight_side)
            _, r1, r2 = run_trial(cfg)
            want = reference_estimate(r1.values.astype(float) * r2.values.astype(float), "standard")
            assert correlation_standard(r1, r2) == want

            cfg = ExperimentConfig(n=30_001, a=a, b=b, mode="weighted", weight_side=weight_side)
            _, r1, r2 = run_trial(cfg)
            weights = r1.weights if weight_side == 1 else r2.weights
            products = weights * r1.values.astype(float) * r2.values.astype(float)
            assert correlation_weighted(r1, r2) == reference_estimate(products, "weighted")


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

    @pytest.mark.parametrize("offset", [1.5, 2.0, np.float64(3.0), True, False, "1", None])
    def test_offset_must_be_an_integer(self, offset):
        with pytest.raises(ValueError, match="integer"):
            ExperimentConfig(n=5, a=0.0, b=0.0, offset=offset)
        with pytest.raises(ValueError, match="integer"):
            StationConfig(side=1, setting=0.0, offset=offset)

    def test_integer_like_offset_is_stored_as_int(self, tmp_path):
        cfg = ExperimentConfig(n=5, a=0.0, b=0.0, offset=np.int64(7))
        assert type(cfg.offset) is int and cfg.offset == 7
        assert all(type(st.offset) is int for st in cfg.station_configs())
        emissions, r1, r2 = run_trial(cfg)
        assert np.array_equal(r2.ticks, np.arange(7, 12))  # side 2 detects every pair
        write_event_log(tmp_path / "events.csv", cfg, emissions, r1, r2, debug_hidden=True)

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
    @pytest.mark.parametrize(
        "kwargs, debug_hidden",
        [
            ({}, False),
            ({}, True),
            ({"mode": "weighted"}, True),
            ({"mode": "standard"}, False),
            ({"weight_side": 2}, True),
            ({"offset": 7}, True),
            ({"offset": 7}, False),
        ],
        ids=["plain", "debug-hidden", "weighted", "standard", "weight-side-2", "offset-7", "offset-7-plain"],
    )
    def test_bytes_match_reference_writer(self, tmp_path, kwargs, debug_hidden):
        cfg = ExperimentConfig(n=3_000, a=0.4, b=2.2, **kwargs)
        emissions, r1, r2 = run_trial(cfg)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_event_log(got, cfg, emissions, r1, r2, debug_hidden)
        reference_event_log(want, cfg, emissions, r1, r2, debug_hidden)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("debug_hidden", [False, True])
    def test_sparse_sides_match_reference_writer(self, tmp_path, debug_hidden):
        # Ticks on one side only, on both sides, and an empty side.
        cfg = ExperimentConfig(n=10, a=0.0, b=0.0, offset=3)
        emissions = run_source(10, seed=4)
        r1 = Detections(ticks=np.array([3, 5, 6, 12], dtype=np.int64), values=np.array([1, -1, -1, 1], dtype=np.int8))
        r2 = Detections(ticks=np.array([4, 5, 12], dtype=np.int64), values=np.array([-1, 1, -1], dtype=np.int8))
        empty = Detections(ticks=np.array([], dtype=np.int64), values=np.array([], dtype=np.int8))
        for pair in ((r1, r2), (r2, r1), (r1, empty), (empty, empty)):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_event_log(got, cfg, emissions, *pair, debug_hidden)
            reference_event_log(want, cfg, emissions, *pair, debug_hidden)
            assert got.read_bytes() == want.read_bytes()

    def test_rejects_values_other_than_plus_minus_one(self, tmp_path):
        cfg = ExperimentConfig(n=3, a=0.0, b=0.0)
        emissions = run_source(3, seed=1)
        r1 = Detections(ticks=np.array([1, 2], dtype=np.int64), values=np.array([1, 0], dtype=np.int8))
        with pytest.raises(ValueError, match="±1"):
            write_event_log(tmp_path / "events.csv", cfg, emissions, r1, r1)

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
