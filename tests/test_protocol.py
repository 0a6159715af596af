import ast
import csv
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lcsim import cli, protocol
from lcsim.circle import TWO_PI, spin_values
from lcsim.models import quadrant_table_analytic
from lcsim.protocol import (
    EVENT_LOG_BLOCK,
    MAX_TICK,
    MODE_WEIGHTED,
    STATION_MODES,
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
    write_event_log,
)

N_MC = 100_000
MIN_TICK = np.iinfo(np.int64).min


# The earlier matcher, station, estimator and event-log writer, kept as the
# references the numpy rewrites must match exactly.


def reference_match(r1, r2):
    common, i1, i2 = np.intersect1d(r1.ticks, r2.ticks, assume_unique=True, return_indices=True)
    return common, r1.values[i1], r2.values[i2]


def reference_station(cfg, emissions):
    """Evaluate every emission, then mask: one whole-stream Philox draw per
    emission, from draw 0."""
    values = spin_values(cfg.side, cfg.setting, emissions.s)
    ticks = emissions.ticks + np.int64(cfg.offset)
    if cfg.mode == "always-detect":
        return Detections(ticks=ticks, values=values)
    window = np.abs(np.cos(emissions.s - cfg.setting))
    if cfg.mode == MODE_WEIGHTED:
        return Detections(ticks=ticks, values=values, weights=(math.pi / 2.0) * window)
    position = int(emissions.ticks[0]) if len(emissions) else 0
    draws = np.random.Generator(np.random.Philox(cfg.seed)).random(position + len(emissions))[position:]
    keep = draws < window
    return Detections(ticks=ticks[keep], values=values[keep])


def philox_draws(seed, start, n):
    """Draws start..start+n-1 of Philox(seed): what a station draws for those ticks."""
    return np.random.Generator(np.random.Philox(seed)).random(start + n)[start:]


def on_the_draws(setting, u, reach=64):
    """Configurations whose |cos(s - setting)| sits on the draws u.

    For each draw, s starts at setting ± arccos(u) reduced to [0, 2π), the
    sign alternating; of the floats within `reach` ulps of it, the one whose
    |cos(s - setting)| is closest to u is kept and then moved by -3..3 ulps in
    turn, so the window lies a few ulps of s above or below the draw, or on it.
    """
    sign = np.where(np.arange(u.size) % 2 == 0, 1.0, -1.0)
    s = np.mod(setting + sign * np.arccos(u), TWO_PI)
    for _ in range(reach):
        s = np.nextafter(s, -math.inf)
    best, err = s, np.inf
    for _ in range(2 * reach + 1):
        e = np.abs(np.abs(np.cos(s - setting)) - u)
        best, err = np.where(e < err, s, best), np.minimum(e, err)
        s = np.nextafter(s, math.inf)
    shift = (np.arange(u.size) // 2) % 7 - 3
    for step in range(3):
        best = np.where(shift > step, np.nextafter(best, math.inf), best)
        best = np.where(-shift > step, np.nextafter(best, -math.inf), best)
    return best


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


def peak_rss_mb(argv) -> float:
    """Peak resident memory of a child process that runs `lcsim argv`, or
    only imports `lcsim.cli` when argv is empty: its VmHWM, since ru_maxrss
    keeps the resident memory of the forking parent."""
    code = "import sys; from lcsim import cli; sys.argv[1:] and cli.main(sys.argv[1:]); " \
           "print(*[line for line in open('/proc/self/status') if line.startswith('VmHWM')])"
    env = {**os.environ, "PYTHONPATH": str(Path(protocol.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    return int(run.stdout.split()[-2]) / 1024  # "VmHWM: <kB> kB"


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

    @pytest.mark.parametrize("start", [0, 1, 65_537, int(MAX_TICK) - 6])
    def test_emissions_are_a_run_from_their_first_tick(self, start):
        assert [field.name for field in dataclasses.fields(Emissions)] == ["first", "s"]
        ticks = Emissions(first=start, s=np.linspace(0.0, 6.0, 7)).ticks
        assert ticks.dtype == np.int64
        assert np.array_equal(ticks, np.arange(start, start + 7, dtype=np.int64))
        assert run_source(5, seed=3, start=start).first == start

    def test_uniform_law(self):
        for seed in (0, 99):
            e = run_source(N_MC, seed=seed)
            assert abs(np.mean(np.cos(e.s))) < 4.0 / math.sqrt(N_MC)

    def test_zero_pairs_rejected(self):
        with pytest.raises(ValueError):
            run_source(0, seed=1)

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 5, 4096, 65_537, 196_609])
    def test_draws_are_generator_uniform(self, start):
        # The source scales the generator's doubles itself; they must be
        # Generator.uniform's draws on [0, 2π) for the same pairs, byte for byte.
        for seed in (0, 7, 101, 2**40 + 3):
            rng = np.random.Generator(np.random.Philox(seed))
            rng.random(start)  # pairs 0..start-1
            want = rng.uniform(0.0, TWO_PI, 3001)
            assert run_source(3001, seed, start).s.tobytes() == want.tobytes()


class TestStation:
    def test_zero_acceptance_at_orthogonal_phase(self):
        e = run_source(5000, seed=3)
        emissions = Emissions(first=e.first, s=np.full(len(e), 1.0 + math.pi / 2))
        cfg = StationConfig(side=1, setting=1.0, mode="acceptance", seed=8)
        assert len(run_station(cfg, emissions)) == 0

    def test_full_acceptance_at_aligned_phase(self):
        e = run_source(500, seed=3)
        emissions = Emissions(first=e.first, s=np.full(len(e), 2.0))
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
        emissions = Emissions(first=e.first, s=np.full(4, math.pi / 2))
        cfg = StationConfig(side=1, setting=0.0, mode=MODE_WEIGHTED, seed=1)
        out = run_station(cfg, emissions)
        assert len(out) == 4
        assert np.all(out.weights < 1e-15)

    def test_unknown_station_mode_rejected(self):
        with pytest.raises(ValueError, match="station mode"):
            StationConfig(side=1, setting=0.0, mode="weighted")


class TestStationReference:
    """Accepting first and evaluating only the kept emissions records
    exactly what evaluating everything and masking records."""

    def assert_matches_reference(self, cfg, emissions):
        got, want = run_station(cfg, emissions), reference_station(cfg, emissions)
        for name in ("ticks", "values", "weights"):
            g, w = getattr(got, name), getattr(want, name)
            assert (g is None) == (w is None)
            if g is not None:
                assert g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()
        return got

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("mode", STATION_MODES)
    def test_bitwise_equal_to_evaluate_then_mask(self, mode, side):
        for setting, start in ((0.3, 0), (2.9, 1), (-4.1, 65_539)):
            cfg = StationConfig(side=side, setting=setting, mode=mode, seed=21, offset=7)
            got = self.assert_matches_reference(cfg, run_source(5003, 5, start))
            assert len(got) > 0

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("mode", STATION_MODES)
    def test_bitwise_equal_when_nothing_is_kept(self, mode, side):
        # |cos| at a right angle is 6e-17, so no uniform draw falls below it.
        emissions = Emissions(first=4097, s=np.full(2000, 1.0 + math.pi / 2))
        cfg = StationConfig(side=side, setting=1.0, mode=mode, seed=3, offset=7)
        got = self.assert_matches_reference(cfg, emissions)
        assert (len(got) == 0) == (mode == "acceptance")

    ADVERSARIAL_SETTINGS = (0.3, -4.1, 40.0, 1e3)  # |s - 1e3| > ACCEPT_PHASE_BOUND: the float64 path

    def adversarial(self, setting, side, start=65_539, n=4200):
        cfg = StationConfig(side=side, setting=setting, mode="acceptance", seed=21, offset=7)
        u = philox_draws(cfg.seed, start, n)
        emissions = Emissions(first=start, s=on_the_draws(setting, u))
        window = np.abs(np.cos(emissions.s - setting))
        assert np.abs(window - u).max() < 1e-13  # far inside the float32 prefilter's error
        assert 0 < np.count_nonzero(u < window) < n and np.any(u == window)
        return cfg, emissions

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("setting", ADVERSARIAL_SETTINGS)
    def test_acceptance_on_its_own_draws(self, setting, side):
        self.assert_matches_reference(*self.adversarial(setting, side))

    def test_acceptance_without_a_margin_decides_wrongly(self, monkeypatch):
        # The mutant that trusts float32 |cos| everywhere: only the float64
        # path, which never reads the margin, still matches.
        monkeypatch.setattr(protocol, "ACCEPT_MARGIN", 0.0)
        for setting in self.ADVERSARIAL_SETTINGS:
            cfg, emissions = self.adversarial(setting, side=1)
            got, want = run_station(cfg, emissions), reference_station(cfg, emissions)
            assert np.array_equal(got.ticks, want.ticks) == (abs(setting) > protocol.ACCEPT_PHASE_BOUND)

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("mode", STATION_MODES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_raise_before_any_warning(self, mode, side, bad):
        # pytest turns warnings into errors, so a RuntimeWarning from np.cos
        # would fail this test instead of the ValueError.
        e = run_source(300, seed=2, start=10)
        for s_bad in (0, 150, 299):
            s = e.s.copy()
            s[s_bad] = bad
            cfg = StationConfig(side=side, setting=0.4, mode=mode, seed=1, offset=7)
            with pytest.raises(ValueError, match="finite"):
                run_station(cfg, Emissions(first=e.first, s=s))
        # A non-finite setting gives a NaN window, which would keep nothing,
        # and with a non-finite s too, s - setting can warn (inf - inf).
        for s_bad in (None, math.nan, math.inf, -math.inf):
            s = e.s.copy()
            if s_bad is not None:
                s[150] = s_bad
            with pytest.raises(ValueError, match="finite"):
                run_station(StationConfig(side=side, setting=bad, mode=mode, seed=1, offset=7),
                            Emissions(first=e.first, s=s))
        # Every emission at a right angle but one non-finite one: nothing is kept.
        s = np.full(300, 0.4 + math.pi / 2)
        s[7] = bad
        with pytest.raises(ValueError, match="finite"):
            run_station(StationConfig(side=side, setting=0.4, mode=mode, seed=1), Emissions(first=e.first, s=s))


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

    @pytest.mark.parametrize("ticks", [[2, 2], [MAX_TICK, MIN_TICK], [0, MAX_TICK, MIN_TICK], [-1, MIN_TICK]])
    def test_non_increasing_rejected_on_either_side(self, ticks):
        # [MAX_TICK, MIN_TICK] has a difference that wraps to +1 in int64.
        # The estimators read the matcher, so equal streams out of order are refused too.
        bad, good = self.make(ticks, [1] * len(ticks)), self.make([0], [1])
        for reader in (match_coincidences, correlation_standard, correlation_weighted):
            for r1, r2, side in ((bad, good, "side 1"), (good, bad, "side 2"), (bad, bad, "side 1")):
                with pytest.raises(ValueError, match=f"{side} ticks must be strictly increasing"):
                    reader(r1, r2)


def test_only_the_matcher_knows_a_record_can_be_a_run():
    # Every other reader of a record takes its tick array.
    tree = ast.parse(Path(protocol.__file__).read_text())
    readers = {
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "_DetectionRun"
    }
    assert readers - {"_DetectionRun"} == {"run_station", "_check_tick_streams", "_within", "match_coincidences"}
    for module in Path(protocol.__file__).parent.glob("*.py"):
        assert module.name == "protocol.py" or "_DetectionRun" not in module.read_text()


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

    def test_spans_beyond_the_int64_range(self):
        # Differences of these adjacent ticks wrap in int64; they are still
        # strictly increasing.
        self.assert_matches_reference([-5, MAX_TICK], [-5, MAX_TICK])
        self.assert_matches_reference([-5, MAX_TICK], [MAX_TICK])
        self.assert_matches_reference([MIN_TICK, MAX_TICK], [MIN_TICK, 0, MAX_TICK])
        self.assert_matches_reference([MIN_TICK, -1, 1, MAX_TICK], [MIN_TICK, MIN_TICK + 1])

    def assert_run_matches_reference(self, run, other):
        """The run on either side, against the other stream: once as a tick
        array, once as an always-detecting station's record, which keeps
        the run as its first tick."""
        run = np.asarray(run, dtype=np.int64)
        assert run.size and np.all(np.diff(run) == 1)
        self.assert_matches_reference(run, other, seed=1)
        self.assert_matches_reference(other, run, seed=2)
        rng = np.random.default_rng(3)
        r_other = Detections(ticks=np.asarray(other, dtype=np.int64), values=spins(rng, len(other)))
        for side in (1, 2):
            record = run_station(StationConfig(side=side, setting=0.3, offset=int(run[0])), run_source(run.size, 4))
            pair = (record, r_other) if side == 1 else (r_other, record)
            got = match_coincidences(*pair)
            assert "ticks" not in vars(record)  # matched by offsets from the first tick
            for g, w in zip(got, reference_match(*pair)):
                assert g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()
            assert np.array_equal(record.ticks, run)

    def test_run_against_every_overlap(self):
        run = np.arange(100, 200)
        for other in (
            np.arange(120, 180, 3),  # inside the run
            [100, 199],  # its two ends
            np.arange(50, 260, 2),  # the run inside the other stream
            [99, 100, 199, 200],
            np.arange(150, 300, 2),  # partial overlaps
            np.arange(0, 130, 4),
            np.arange(150, 250),  # another run
            run,
            np.arange(80, 100),  # adjacent
            np.arange(200, 220),
            [99, 200],
            np.arange(300, 400, 5),  # disjoint
            np.arange(0, 50),
            [],
        ):
            self.assert_run_matches_reference(run, other)

    def test_single_tick_runs(self):
        for other in ([5], [4, 5, 6, 8], [4, 6], [0, 5], [5, 9], [6], []):
            self.assert_run_matches_reference([5], other)

    def test_runs_at_the_ends_of_the_tick_range(self):
        cases = (
            (np.arange(-1000, -900), [-2000, -1000, -950, -901, -900, 5]),
            (MIN_TICK + np.arange(50), [MIN_TICK, MIN_TICK + 10, MIN_TICK + 49, MIN_TICK + 50, 0, MAX_TICK]),
            (MIN_TICK + np.arange(50), [MIN_TICK + 50, MAX_TICK]),
            (MAX_TICK - np.arange(50)[::-1], [MIN_TICK, MAX_TICK - 60, MAX_TICK - 49, MAX_TICK - 10, MAX_TICK]),
            (MAX_TICK - np.arange(50)[::-1], [MIN_TICK, MAX_TICK - 50]),
            (MAX_TICK - np.arange(50)[::-1], MAX_TICK - np.arange(70)[::-1]),
            ([MAX_TICK], [MIN_TICK, MAX_TICK]),
            ([MIN_TICK], [MIN_TICK, MAX_TICK]),
            (np.arange(-3, 4), [MIN_TICK, -3, 0, 3, MAX_TICK]),
        )
        for run, other in cases:
            self.assert_run_matches_reference(run, other)

    def test_two_runs_share_their_overlap(self):
        def record(side, first, size):
            return run_station(StationConfig(side=side, setting=0.3, offset=first), run_source(size, 5 + side))

        for first1, size1, first2, size2 in (
            (0, 100, 0, 100), (0, 100, 40, 100), (40, 100, 0, 30), (0, 10, 10, 10), (5, 1, 5, 1),
            (MIN_TICK, 50, MIN_TICK + 49, 3), (MAX_TICK - 49, 50, MAX_TICK - 9, 10), (MIN_TICK, 5, MAX_TICK - 4, 5),
        ):
            r1, r2 = record(1, first1, size1), record(2, first2, size2)
            got = match_coincidences(r1, r2)
            assert "ticks" not in vars(r1) and "ticks" not in vars(r2)
            for g, w in zip(got, reference_match(r1, r2)):
                assert g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()

    def test_always_detecting_records_keep_runs_until_read(self):
        for mode in ("coincidence", "weighted", "standard"):
            cfg = ExperimentConfig(n=5000, a=0.3, b=2.0, mode=mode, offset=7)
            emissions, r1, r2 = run_trial(cfg)
            runs = [r for r in (r1, r2) if len(r) == cfg.n]
            match_coincidences(r1, r2)
            if mode == "standard":
                correlation_standard(r1, r2)
            if mode == "weighted":
                correlation_weighted(r1, r2)
            assert runs and all("ticks" not in vars(r) for r in (emissions, *runs))
            for r in runs:
                assert r.ticks.tobytes() == (np.arange(cfg.n, dtype=np.int64) + 7).tobytes()

    def test_results_are_new_arrays(self):
        r1 = Detections(ticks=np.arange(10, dtype=np.int64), values=np.ones(10, dtype=np.int8))
        r2 = Detections(ticks=np.arange(5, 15, dtype=np.int64), values=-np.ones(10, dtype=np.int8))
        r3 = run_station(StationConfig(side=2, setting=0.3, offset=3), run_source(10, 1))
        for a, b in ((r1, r2), (r2, r1), (r1, r3), (r3, r1), (r3, r3)):
            for out in match_coincidences(a, b):
                for record in (a.ticks, a.values, b.ticks, b.values):
                    assert not np.shares_memory(out, record)

    def test_experiment_streams(self, monkeypatch):
        for mode in ("coincidence", "weighted", "standard"):
            for weight_side in (1, 2):
                cfg = ExperimentConfig(n=20_000, a=0.3, b=2.0, mode=mode, weight_side=weight_side, offset=7)
                _, r1, r2 = run_trial(cfg)
                want = reference_match(r1, r2)
                # The always-detecting side is a run, so no table lookup runs.
                with monkeypatch.context() as m:
                    m.setattr(np, "isin", None)
                    got = match_coincidences(r1, r2)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    assert g.tobytes() == w.tobytes()


def exact_stderr_brackets(n, s, stderr):
    """Whether the exact stderr sqrt((n² - s²) / (n²(n - 1))) of n ±1
    products summing to s lies within one ulp of `stderr`: squares compared
    as exact fractions."""
    q = Fraction(n * n - s * s, n * n * (n - 1))
    x, ulp = Fraction(stderr), Fraction(math.ulp(stderr))
    return max(x - ulp, 0) ** 2 <= q <= (x + ulp) ** 2


class TestEstimatorReference:
    """The ±1 estimates come from the four cell counts: the value is bitwise
    numpy's mean of the float products, and the stderr is within an ulp of
    the exact one (and so within a few ulps of numpy's std(ddof=1)/√n). The
    weighted estimate keeps its products and stays bitwise numpy's."""

    def assert_counts_estimate(self, est, products):
        want = reference_estimate(products, est.kind)
        assert (est.value, est.n, est.kind) == (want.value, want.n, want.kind)
        n, s = products.size, int(products.sum())
        if n > 1:
            assert exact_stderr_brackets(n, s, est.stderr)
            assert abs(est.stderr - want.stderr) <= 4 * math.ulp(want.stderr)
        else:
            assert est.stderr == 0.0

    @pytest.mark.parametrize("weight_side", [1, 2])
    def test_against_float_products(self, weight_side):
        for a, b in ((0.0, 0.7), (1.3, 1.3), (0.2, 2.9)):
            cfg = ExperimentConfig(n=30_001, a=a, b=b, weight_side=weight_side)
            _, r1, r2 = run_trial(cfg)
            _, f1, f2 = match_coincidences(r1, r2)
            self.assert_counts_estimate(correlation_dp(f1, f2), f1.astype(float) * f2.astype(float))
            assert run_experiment(cfg).estimate == correlation_dp(f1, f2)

            cfg = ExperimentConfig(n=30_001, a=a, b=b, mode="standard", weight_side=weight_side)
            _, r1, r2 = run_trial(cfg)
            est = correlation_standard(r1, r2)
            self.assert_counts_estimate(est, r1.values.astype(float) * r2.values.astype(float))
            assert run_experiment(cfg).estimate == est

            cfg = ExperimentConfig(n=30_001, a=a, b=b, mode="weighted", weight_side=weight_side)
            _, r1, r2 = run_trial(cfg)
            weights = r1.weights if weight_side == 1 else r2.weights
            products = weights * r1.values.astype(float) * r2.values.astype(float)
            assert correlation_weighted(r1, r2) == reference_estimate(products, "weighted")
            assert run_experiment(cfg).estimate == reference_estimate(products, "weighted")

    def test_random_sums_and_sizes(self):
        rng = np.random.default_rng(3)
        sizes = [1, 2, 3, 4, 5, 7, 100, 1001, 65_536, 300_001]
        for n in sizes + list(rng.integers(2, 200_000, size=30)):
            for share in (0.0, 0.5, rng.random(), 1.0):
                f1 = spins(rng, n)
                f2 = np.where(rng.random(n) < share, f1, -f1).astype(np.int8)
                self.assert_counts_estimate(correlation_dp(f1, f2), f1.astype(float) * f2.astype(float))

    def test_the_bracket_rejects_a_stderr_two_ulps_off(self):
        n, s = 1001, 37
        exact = math.sqrt((n * n - s * s) / (n * n * (n - 1)))
        assert exact_stderr_brackets(n, s, exact)
        assert not exact_stderr_brackets(n, s, exact + 2 * math.ulp(exact))
        assert not exact_stderr_brackets(n, s, exact - 2 * math.ulp(exact))

    def test_values_other_than_plus_minus_one_are_refused(self):
        with pytest.raises(ValueError, match="±1"):
            correlation_dp(np.array([1, 0, -1]), np.array([1, 1, 1]))
        d1 = Detections(np.array([1, 2]), np.array([1, 2]))
        with pytest.raises(ValueError, match="±1"):
            correlation_standard(d1, Detections(np.array([1, 2]), np.array([1, 1])))


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

    @pytest.mark.parametrize("estimator", [correlation_standard, correlation_weighted])
    def test_runs_must_start_and_end_together(self, estimator):
        def record(size, offset=3, mode="always-detect"):
            return run_station(StationConfig(side=1, setting=0.3, mode=mode, offset=offset), run_source(size, 2))

        for other in (record(9), record(11), record(10, offset=4)):
            with pytest.raises(ValueError, match="tick mismatch"):
                estimator(record(10, mode=MODE_WEIGHTED), other)
        assert estimator(record(10, mode=MODE_WEIGHTED), record(10)).n == 10

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
        offset_range = f"tick offset must be an integer of at least {-top - 1} and at most {top}"
        assert ExperimentConfig(n=10, a=0.0, b=0.0, offset=top - 9).offset == top - 9
        with pytest.raises(ValueError, match="int64"):
            ExperimentConfig(n=10, a=0.0, b=0.0, offset=top - 8)
        with pytest.raises(ValueError, match=offset_range):
            ExperimentConfig(n=10, a=0.0, b=0.0, offset=10**20)
        assert StationConfig(side=1, setting=0.0, offset=top).offset == top
        with pytest.raises(ValueError, match=offset_range):
            StationConfig(side=2, setting=0.0, offset=top + 1)
        assert StationConfig(side=1, setting=0.0, offset=-top - 1).offset == -top - 1
        with pytest.raises(ValueError, match=offset_range):
            StationConfig(side=2, setting=0.0, offset=-top - 2)
        # A source run and a station's record of it are kept as their first
        # tick, so their last tick is checked before any tick array exists.
        assert run_source(10, 1, start=top - 9).ticks[-1] == top
        with pytest.raises(ValueError, match="int64"):
            run_source(10, 1, start=top - 8)
        for mode in STATION_MODES:
            cfg = StationConfig(side=1, setting=0.0, mode=mode, offset=top - 10)
            assert run_station(cfg, run_source(10, 1, start=1)).ticks[-1] <= top
            with pytest.raises(ValueError, match="int64"):
                run_station(cfg, run_source(10, 1, start=2))

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

    def test_numpy_integer_config_gives_the_same_json_summary(self):
        # The pair count and seeds are stored as Python ints, so the summary's
        # "n" is one; a numpy int64 there made json.dumps raise TypeError.
        cfg = ExperimentConfig(n=np.int64(1000), a=0.3, b=2.2, source_seed=np.int64(11), station1_seed=np.uint8(12))
        assert all(type(value) is int for value in (cfg.n, cfg.source_seed, cfg.station1_seed, cfg.offset))
        ref = ExperimentConfig(n=1000, a=0.3, b=2.2, source_seed=11, station1_seed=12)
        text = json.dumps(run_experiment(cfg).to_dict())
        assert text == json.dumps(run_experiment(ref).to_dict())

    @pytest.mark.parametrize(
        "mode,target",
        [
            ("coincidence", -math.cos(0.7)),
            ("weighted", -math.cos(0.7)),
            ("standard", sawtooth(0.7)),
        ],
        ids=["coincidence", "weighted", "standard"],
    )
    def test_stderr_is_calibrated_across_seeds(self, mode, target):
        # Over 200 seeds the z-scores of an honest estimate with an honest
        # stderr are close to N(0, 1); one lucky seed cannot pass this.
        z = np.array([
            (est.value - target) / est.stderr
            for est in (
                run_experiment(ExperimentConfig(
                    n=2_000, a=0.0, b=0.7, mode=mode,
                    source_seed=3 * k, station1_seed=3 * k + 1, station2_seed=3 * k + 2,
                )).estimate
                for k in range(200)
            )
        ])
        assert abs(z.mean()) <= 0.3
        assert 0.8 <= z.std(ddof=1) <= 1.2
        assert np.abs(z).max() <= 5.0


def recount(f1, f2):
    """The four coincidence cells by index 2·[f1 = -1] + [f2 = +1], so II =
    (+1, -1), IJ = (+1, +1), JI = (-1, -1) and JJ = (-1, +1)."""
    return tuple(np.bincount(2 * (f1 == -1) + (f2 == 1), minlength=4).tolist())


class TestCellCounts:
    @pytest.mark.parametrize("weight_side", [1, 2])
    @pytest.mark.parametrize("mode", ["coincidence", "weighted", "standard"])
    def test_summary_cells_equal_a_recount(self, mode, weight_side):
        # Two blocks and a bit, against the whole-run records and the
        # reference matcher.
        cfg = ExperimentConfig(n=2 * EVENT_LOG_BLOCK + 5, a=0.3, b=2.0, mode=mode, weight_side=weight_side)
        _, r1, r2 = run_trial(cfg)
        _, f1, f2 = reference_match(r1, r2)
        summary = run_experiment(cfg)
        assert summary.cells == recount(f1, f2)
        assert sum(summary.cells) == summary.coincidences == f1.size
        assert summary.to_dict()["cells"] == dict(zip(("IxI", "IxJ", "JxI", "JxJ"), summary.cells))

    @staticmethod
    def chi2_of_summaries(grid=8, n=20_000):
        """Pearson χ² of the summary cells of every setting on the grid
        against coincidences × the singlet quadrant table, with its degrees
        of freedom. A cell the table gives no mass must stay empty and adds
        no degree of freedom; each setting's counts are tied to its
        coincidences, which takes one more."""
        settings = np.arange(grid) * (TWO_PI / grid)
        chi2, dof = 0.0, 0
        for idx, (a, b) in enumerate(itertools.product(settings, settings)):
            cfg = ExperimentConfig(
                n=n, a=float(a), b=float(b),
                source_seed=5 + 3 * idx, station1_seed=5 + 3 * idx + 1, station2_seed=5 + 3 * idx + 2,
            )
            counts = np.array(run_experiment(cfg).cells)
            table = quadrant_table_analytic(a, b)
            expected, live = counts.sum() * table, table > 1e-12
            if counts[~live].any():
                return math.inf, dof
            chi2 += float((((counts - expected) ** 2)[live] / expected[live]).sum())
            dof += int(live.sum()) - 1
        return chi2, dof

    def test_coincidence_cells_fit_the_closed_forms(self):
        chi2, dof = self.chi2_of_summaries()
        assert chi2 <= dof + 5 * math.sqrt(2 * dof)

    def test_swapped_cells_fail_the_fit(self, monkeypatch):
        cells = protocol._cells

        def swapped(f1, f2):
            ii, ij, ji, jj = cells(f1, f2)
            return ij, ii, ji, jj

        monkeypatch.setattr(protocol, "_cells", swapped)
        chi2, dof = self.chi2_of_summaries()
        assert chi2 > dof + 5 * math.sqrt(2 * dof)


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
            # The records of two run blocks at once; weighted, 2n rows.
            ({"n": 2 * EVENT_LOG_BLOCK}, False),
            ({"n": 2 * EVENT_LOG_BLOCK, "mode": "weighted", "offset": 7}, True),
        ],
        ids=["plain", "debug-hidden", "weighted", "standard", "weight-side-2", "offset-7", "offset-7-plain",
             "several-blocks", "several-blocks-debug-hidden"],
    )
    def test_bytes_match_reference_writer(self, tmp_path, kwargs, debug_hidden):
        cfg = ExperimentConfig(**{"n": 3_000, "a": 0.4, "b": 2.2, **kwargs})
        emissions, r1, r2 = run_trial(cfg)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_event_log(got, cfg, emissions, r1, r2, debug_hidden)
        reference_event_log(want, cfg, emissions, r1, r2, debug_hidden)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("debug_hidden", [False, True])
    def test_sparse_sides_match_reference_writer(self, tmp_path, debug_hidden):
        # Ticks on one side only, on both sides (side 1's row first), and an
        # empty side, as int64 and as hand-built int32 ticks, and against a run.
        cfg = ExperimentConfig(n=10, a=0.0, b=0.0, offset=3)
        emissions = run_source(10, seed=4)
        r1 = Detections(ticks=np.array([3, 5, 6, 12], dtype=np.int64), values=np.array([1, -1, -1, 1], dtype=np.int8))
        r2 = Detections(ticks=np.array([4, 5, 12], dtype=np.int64), values=np.array([-1, 1, -1], dtype=np.int8))
        empty = Detections(ticks=np.array([], dtype=np.int64), values=np.array([], dtype=np.int8))
        narrow = [dataclasses.replace(r, ticks=r.ticks.astype(np.int32)) for r in (r1, r2, empty)]
        run = run_station(StationConfig(side=2, setting=0.3, offset=3), emissions)
        for pair in ((r1, r2), (r2, r1), (r1, empty), (empty, empty), narrow[:2], (narrow[0], r2), (narrow[2], r2),
                     (narrow[0], run), (r1, r1)):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_event_log(got, cfg, emissions, *pair, debug_hidden)
            reference_event_log(want, cfg, emissions, *pair, debug_hidden)
            assert got.read_bytes() == want.read_bytes()
        assert [row[:4] for row in got.read_text().splitlines()[1:3]] == ["3,1,", "3,2,"]

    def test_run_side_against_ticks_around_it(self, tmp_path):
        # An always-detecting record keeps its run as the first tick; the
        # other side's rows go before, among and after the run's.
        cfg = ExperimentConfig(n=10, a=0.0, b=0.0, offset=3)
        emissions = run_source(10, seed=4)
        rng = np.random.default_rng(5)
        for other in ([], [0], [2, 3], [3, 12], [12, 13], [0, 5, 6, 12, 40], np.arange(-5, 20), [MIN_TICK, 7, MAX_TICK]):
            r_other = Detections(ticks=np.asarray(other, dtype=np.int64), values=spins(rng, len(other)))
            for side in (1, 2):
                record = run_station(StationConfig(side=side, setting=0.3, offset=3), emissions)
                pair = (record, r_other) if side == 1 else (r_other, record)
                got, want = tmp_path / "got.csv", tmp_path / "want.csv"
                write_event_log(got, cfg, emissions, *pair)
                reference_event_log(want, cfg, emissions, *pair)
                assert got.read_bytes() == want.read_bytes()

    def test_rejects_ticks_out_of_order(self, tmp_path):
        cfg = ExperimentConfig(n=3, a=0.0, b=0.0)
        emissions = run_source(3, seed=1)
        r1 = Detections(ticks=np.array([2, 1], dtype=np.int64), values=np.array([1, -1], dtype=np.int8))
        with pytest.raises(ValueError, match="side 2 ticks must be strictly increasing"):
            write_event_log(tmp_path / "events.csv", cfg, emissions, run_trial(cfg)[1], r1)

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


class TestEventLogDigits:
    """The plain rows are built digit by digit in a uint8 buffer; every tick
    width, a sign, and a side without detections give the reference bytes."""

    @pytest.mark.parametrize(
        "n, offset",
        [
            (101, 0),  # ticks 0, 9, 10, 99 and 100 in one block
            (10, 10**18 - 5),  # 18 and 19 digits in one block
            (10, MAX_TICK - 9),  # the last tick is MAX_TICK
            (12, -5),  # negative ticks, down to -5
            (10, -(2**63)),  # the int64 minimum, whose magnitude wraps to itself
        ],
        ids=["small-widths", "1e18", "max-tick", "negative", "int64-min"],
    )
    @pytest.mark.parametrize("debug_hidden", [False, True])
    def test_bytes_match_reference_writer(self, tmp_path, n, offset, debug_hidden):
        cfg = ExperimentConfig(n=n, a=0.4, b=2.2, offset=offset)
        emissions, r1, r2 = run_trial(cfg)
        empty = Detections(ticks=np.array([], dtype=np.int64), values=np.array([], dtype=np.int8))
        for pair in ((r1, r2), (r1, empty), (empty, r2)):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_event_log(got, cfg, emissions, *pair, debug_hidden)
            reference_event_log(want, cfg, emissions, *pair, debug_hidden)
            assert got.read_bytes() == want.read_bytes()
        if offset == 0:
            ticks = {int(row[0]) for row in csv.reader(got.read_text().splitlines()[1:])}
            assert {0, 9, 10, 99, 100} <= ticks


class TestStreaming:
    """run_experiment runs blocks of EVENT_LOG_BLOCK pairs, so its memory
    does not grow with the arrays of the whole run, and no block size
    changes a byte of any output."""

    N = 600  # a multiple of neither 4 (Philox draws per step) nor 7

    @pytest.mark.parametrize("weight_side", [1, 2])
    @pytest.mark.parametrize("mode", ["coincidence", "weighted", "standard"])
    def test_outputs_do_not_depend_on_the_block_size(self, monkeypatch, tmp_path, mode, weight_side):
        cfg = ExperimentConfig(n=self.N, a=0.4, b=2.2, mode=mode, weight_side=weight_side, offset=7)
        outputs = []
        for block in (1, 7, 4096, self.N):
            monkeypatch.setattr(protocol, "EVENT_LOG_BLOCK", block)
            chsh = chsh_estimate(250, mode=mode, base_seed=3)
            docs = [run_experiment(cfg).to_dict(), chsh["chsh"], [run.to_dict() for run in chsh["runs"]]]
            for debug_hidden in (False, True):
                log = tmp_path / f"events-{block}-{debug_hidden}.csv"
                assert run_experiment(cfg, events_csv=log, debug_hidden=debug_hidden).to_dict() == docs[0]
                docs.append(log.read_bytes().decode())
            outputs.append(json.dumps(docs))
        assert outputs[1:] == outputs[:1] * 3
        # The streamed logs are the whole-run records' logs.
        emissions, r1, r2 = run_trial(cfg)
        for debug_hidden in (False, True):
            whole = tmp_path / f"whole-{debug_hidden}.csv"
            write_event_log(whole, cfg, emissions, r1, r2, debug_hidden)
            assert whole.read_bytes() == (tmp_path / f"events-1-{debug_hidden}.csv").read_bytes()

    @pytest.mark.parametrize("debug_hidden", [False, True])
    def test_event_log_blocks_join_into_the_whole_run_log(self, tmp_path, debug_hidden):
        cfg = ExperimentConfig(n=self.N, a=0.4, b=2.2, mode="weighted", weight_side=2, offset=7)
        st1, st2 = cfg.station_configs()
        blocks, whole = tmp_path / "blocks.csv", tmp_path / "whole.csv"
        blocks.write_bytes(b"stale rows that the first block must replace\r\n" * 3)
        bounds = (0, 1, 5, 64, 300, 301, self.N)  # blocks of unequal sizes
        for start, stop in zip(bounds, bounds[1:]):
            emissions = run_source(stop - start, cfg.source_seed, start)
            write_event_log(blocks, cfg, emissions, run_station(st1, emissions), run_station(st2, emissions),
                            debug_hidden)
        write_event_log(whole, cfg, *run_trial(cfg), debug_hidden)
        assert blocks.read_bytes() == whole.read_bytes()

    def test_source_blocks_are_slices_of_the_whole_stream(self):
        whole = run_source(1000, seed=9)
        for start in (1, 2, 3, 5, 6, 7, 258, 997):
            k = min(37, 1000 - start)
            part = run_source(k, 9, start)
            assert part.ticks.tobytes() == whole.ticks[start : start + k].tobytes()
            assert part.s.tobytes() == whole.s[start : start + k].tobytes()
        with pytest.raises(ValueError, match="start"):
            run_source(5, 9, -1)

    def test_acceptance_station_draws_from_its_first_tick(self):
        cfg = StationConfig(side=1, setting=0.3, mode="acceptance", seed=12)
        whole = run_station(cfg, run_source(1000, seed=4))
        part = run_station(cfg, run_source(333, 4, 301))
        inside = (whole.ticks >= 302) & (whole.ticks < 635)
        assert part.ticks.tobytes() == whole.ticks[inside].tobytes()
        assert part.values.tobytes() == whole.values[inside].tobytes()

    @staticmethod
    def traced_peak(cfg) -> int:
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("mode", ["coincidence", "weighted", "standard"])
    def test_peak_memory_at_a_million_pairs(self, mode):
        # The whole-run arrays took 52 to 68 MB here; the blocks leave only
        # the weighted estimator's float64 product per pair and deviations.
        assert self.traced_peak(ExperimentConfig(n=1_000_000, a=0.3, b=2.0, mode=mode)) <= 20e6

    @pytest.mark.parametrize("mode", ["coincidence", "standard"])
    def test_peak_memory_of_a_counted_run_does_not_grow_with_the_pairs(self, mode):
        # The ±1 estimates keep four cell counts: a run of 4M pairs peaks where
        # one of 1M does. The int8 products buffer grew 3 MB between them. A
        # small run goes first: the first run of a process fills caches too.
        run_experiment(ExperimentConfig(n=1000, a=0.3, b=2.0, mode=mode))
        peaks = [self.traced_peak(ExperimentConfig(n=n, a=0.3, b=2.0, mode=mode)) for n in (1_000_000, 4_000_000)]
        assert abs(peaks[1] - peaks[0]) <= 1e6

    def test_peak_memory_of_a_logged_million_pair_run(self, tmp_path):
        # The log is written block by block too: the whole-run log took 65 MB here.
        argv = ["simulate", "--pairs", "1000000", "--a", "0.3", "--b", "2.2", "--events-csv", str(tmp_path / "e.csv")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25e6

    def test_peak_rss_of_a_million_pair_hidden_column_log(self, tmp_path):
        # tracemalloc would trace each of the millions of objects that format
        # the hidden column and take half a minute, so this compares the peak
        # resident memory of child processes instead. A block's formatting
        # took 24 MB over the run without a log; the whole-run log took 64 MB.
        argv = ["simulate", "--pairs", "1000000", "--a", "0.3", "--b", "2.2"]
        logged = argv + ["--events-csv", str(tmp_path / "e.csv"), "--debug-hidden"]
        assert peak_rss_mb(logged) <= peak_rss_mb(argv) + 40
