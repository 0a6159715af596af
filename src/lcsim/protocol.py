"""Strictly local three-actor coincidence simulation.

A source actor emits timestamped pairs that share one hidden configuration
angle; two station actors independently apply setting-dependent acceptance or
weighting rules and record timestamped ±1 outcomes; a matcher intersects the
timestamp sets. Stations never see each other's settings, records, or seeds:
every stage is a pure function of its own inputs, so the no-communication
contract is enforced by the call graph, and running the stages in any order,
block size or thread layout cannot change a byte of the output. Each actor
owns an independent counter-based generator (Philox), which makes whole runs
replayable and lets locality be audited bit for bit.

A run streams through every stage, the per-event log included, in blocks
of EVENT_LOG_BLOCK pairs, so its memory stays bounded for any pair count:
the ±1 estimates keep only the four coincidence cell counts, and only the
weighted estimate keeps one float64 product per pair. The source emits one
pair per tick, so its emissions are a run of consecutive ticks, kept as
their first tick, and so is the always-detecting station's record of them.
Only the matcher knows a record can be a run: it places the other side's
records by their offsets from the run's first tick, and everything else
reads the tick array, built when read.

Detection is encoded by presence of the timestamp: an emission whose local
configuration leaves the detection window simply produces no record. With
acceptance probability |cos(s - setting)| on exactly one side, conditioning
on coincidences reproduces the singlet quadrant statistics exactly, while the
fully-detected ("standard") estimator stays at the sawtooth correlation and
never violates the CHSH bound of 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, integer, on_side, spin_values
from .models import TSIRELSON_SETTINGS, Quadrant, chsh, chsh_pairs

# The three local station rules; see run_station.
MODE_ACCEPTANCE = "acceptance"
MODE_ALWAYS = "always-detect"
MODE_WEIGHTED = "always-detect-weighted"
STATION_MODES = (MODE_ACCEPTANCE, MODE_ALWAYS, MODE_WEIGHTED)

KIND_STANDARD = "standard"
KIND_WEIGHTED = "weighted"
KIND_COINCIDENCE = "coincidence"

#: The weighted side's station rule per experiment mode; the other side always detects.
WEIGHTED_STATION_MODE = {
    KIND_COINCIDENCE: MODE_ACCEPTANCE,
    KIND_WEIGHTED: MODE_WEIGHTED,
    KIND_STANDARD: MODE_ALWAYS,
}
EXPERIMENT_MODES = tuple(WEIGHTED_STATION_MODE)

MAX_TICK = np.iinfo(np.int64).max  # ticks are int64
MIN_TICK = np.iinfo(np.int64).min

#: The most pairs of one run: up to 2**53 the float64 sum of ±1 products is
#: exact, so the estimate from the integer cell counts is bitwise their mean.
MAX_PAIRS = 2**53

#: Pairs per block of a run, whose event-log rows are formatted and written
#: together: each block's arrays stay in cache, and memory stays bounded.
EVENT_LOG_BLOCK = 65_536

#: Event-log rows formatted and written together: a piece's rows exist at
#: once (as Python strings in the hidden-column log), a block's never.
EVENT_LOG_PIECE = 4096

#: The acceptance rule decides u < |cos x| in float32 wherever the float32
#: difference g of u and |cos x| exceeds ACCEPT_MARGIN; see _accepted. For
#: |x| <= ACCEPT_PHASE_BOUND, the float32 |cos x| is within 2^-24·|x| <= 3.82e-6
#: of the true one from rounding x to float32 (cos is 1-Lipschitz), plus a few
#: float32 ulps of at most 2^-24 = 6e-8 each from np.cos; float64 np.cos is
#: within 1.1e-16 of it. Rounding u to float32 moves it by at most 2^-25, and
#: g, rounded once, keeps its sign and is within 2^-24·|g| of the exact float32
#: difference. Together: below 4.2e-6, so where |g| > ACCEPT_MARGIN its sign is
#: the float64 decision. About 2·ACCEPT_MARGIN of the uniform draws, 1.3 per
#: 65,536, lie closer and are decided with float64 np.cos.
ACCEPT_PHASE_BOUND = 64.0
ACCEPT_MARGIN = 1e-5

#: 10, 100, ..., 10**18: a tick magnitude has one digit more than the number
#: of these it reaches.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.uint64)


class EmptyCoincidenceError(RuntimeError):
    """No coincidences at all: the conditioned estimator is undefined."""


def _run_ticks(first: int, size: int) -> np.ndarray:
    return np.arange(first, first + size, dtype=np.int64)


@dataclass(frozen=True)
class Emissions:
    """Columnar stream of source events: the pairs at the consecutive ticks
    first, first + 1, ... and the shared hidden configuration angle of each."""

    first: int
    s: np.ndarray

    @property
    def ticks(self) -> np.ndarray:
        """The emission ticks, built when read."""
        return _run_ticks(self.first, len(self))

    def __len__(self) -> int:
        return int(self.s.size)


@dataclass(frozen=True)
class Detections:
    """Columnar stream of station events. A missing tick means the particle
    left the detection window; weights are present only under the weighted
    station rule."""

    ticks: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.ticks.size)


class _DetectionRun(Detections):
    """Detections at the consecutive ticks first, first + 1, ...: what an
    always-detecting station records of a source run. The tick array is
    built only when something reads it."""

    def __init__(self, first: int, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @property
    def ticks(self) -> np.ndarray:
        return _run_ticks(self.first, len(self))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class StationConfig:
    side: int
    setting: float
    mode: str = MODE_ALWAYS
    seed: int = 0
    offset: int = 1  # measurement tick is emission tick + offset

    def __post_init__(self) -> None:
        on_side(self.side, None, None, "side")  # validates the side
        if self.mode not in STATION_MODES:
            raise ValueError(f"unknown station mode {self.mode!r}")
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        object.__setattr__(self, "offset", integer(self.offset, "tick offset", MIN_TICK, MAX_TICK))


def _generator(seed: int, position: int) -> np.random.Generator:
    """Philox(seed) at its `position`-th draw, bitwise the stream from draw 0
    onwards: Philox makes four draws per counter step, so it advances whole
    steps and then discards the rest."""
    bit_generator = np.random.Philox(seed)
    if position:
        bit_generator.advance(position // 4)
        bit_generator.random_raw(position % 4)
    return np.random.Generator(bit_generator)


def run_source(n: int, seed: int, start: int = 0) -> Emissions:
    """Emit pairs start..start+n-1 of the source's stream, at those ticks,
    with configurations drawn uniformly on [0, 2π). A pure function of
    (n, seed, start); settings never enter, and consecutive blocks join into
    the whole run bit for bit."""
    n, seed, start = integer(n, "pair count", 1), integer(seed, "seed"), integer(start, "start")
    if start + n - 1 > MAX_TICK:
        raise ValueError(f"last tick start + n - 1 exceeds the int64 maximum {MAX_TICK}")
    # Bitwise Generator.uniform(0.0, TWO_PI, n), which computes 0 + 2π·u
    # from the same doubles u, without its argument handling.
    s = _generator(seed, start).random(n)
    s *= TWO_PI
    return Emissions(start, s)


def run_station(cfg: StationConfig, emissions: Emissions) -> Detections:
    """Process the emission stream with purely local information.

    Acceptance keeps an emission with probability |cos(s - setting)| drawn
    from the station's own generator, one draw per emission from the draw
    numbered by the first emission tick, so a block of a run draws what the
    whole run draws for it. The two always-detect rules keep all, the
    weighted one with weight (π/2)|cos(s - setting)|. A kept emission
    records spin_values(side, setting, s) at tick + offset; the
    always-detect record is a run too.
    """
    first = emissions.first
    if first + cfg.offset + len(emissions) - 1 > MAX_TICK:
        raise ValueError(f"last tick + offset exceeds the int64 maximum {MAX_TICK}")
    weights = None
    if cfg.mode != MODE_ALWAYS:
        if not math.isfinite(cfg.setting):  # checked first, so inf - inf never warns
            raise ValueError("angles must be finite")
        phase = np.subtract(emissions.s, cfg.setting, dtype=float)
    if cfg.mode == MODE_ACCEPTANCE:
        # Accept first, then evaluate spins and ticks for the kept emissions only.
        kept = _accepted(_generator(cfg.seed, first).random(len(emissions)), phase)
        values = spin_values(cfg.side, cfg.setting, emissions.s.take(kept))
        kept += first + cfg.offset
        return Detections(ticks=kept, values=values)
    if cfg.mode == MODE_WEIGHTED:
        # The weight (π/2)|cos(s - setting)|, computed in place in the phase buffer.
        _check_finite(phase)
        weights = np.abs(np.cos(phase, out=phase), out=phase)
        weights *= math.pi / 2.0
    values = spin_values(cfg.side, cfg.setting, emissions.s)
    return _DetectionRun(first + cfg.offset, values, weights)


def _check_finite(phase: np.ndarray) -> None:
    if not np.isfinite(phase).all():  # checked first, so np.cos never warns
        raise ValueError("angles must be finite")


def _accepted(u: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Indices of the emissions kept by the draws u: where u < |cos(phase)|,
    decided exactly as with float64 np.cos.

    Only the decisions are kept, so where every |phase| <= ACCEPT_PHASE_BOUND
    they are made in float32, where np.cos is over ten times cheaper, and
    float64 np.cos is taken only where u lies within ACCEPT_MARGIN of |cos|.
    Outside that bound, NaN and infinities included, every |cos| is float64.
    """
    if not (-ACCEPT_PHASE_BOUND <= phase.min(initial=0.0) and phase.max(initial=0.0) <= ACCEPT_PHASE_BOUND):
        _check_finite(phase)
        return np.flatnonzero(u < np.abs(np.cos(phase, out=phase), out=phase))
    window = phase.astype(np.float32)
    np.abs(np.cos(window, out=window), out=window)
    gap = u.astype(np.float32)
    gap -= window
    kept = gap < 0.0
    close = np.flatnonzero(np.abs(gap, out=gap) <= ACCEPT_MARGIN)
    kept[close] = u[close] < np.abs(np.cos(phase[close]))
    return np.flatnonzero(kept)


def _check_tick_streams(r1: Detections, r2: Detections) -> None:
    """Both sides' ticks increase strictly; a run does by construction."""
    for d, name in ((r1, "side 1"), (r2, "side 2")):
        # Adjacent ticks are compared, not differenced: a difference can wrap in int64.
        if not isinstance(d, _DetectionRun) and not np.all(d.ticks[1:] > d.ticks[:-1]):
            raise ValueError(f"{name} ticks must be strictly increasing and unique")


def _within(ticks: np.ndarray, run: _DetectionRun) -> tuple[slice, np.ndarray]:
    """The slice of the strictly increasing `ticks` that lies inside the
    run, found by binary search, and those ticks' positions in the run."""
    inside = slice(
        np.searchsorted(ticks, run.first, side="left"),
        np.searchsorted(ticks, run.first + len(run) - 1, side="right"),
    )
    return inside, ticks[inside] - run.first


def match_coincidences(r1: Detections, r2: Detections) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Timestamp-set intersection: (common ticks, side-1 values, side-2
    values), in tick order, as new arrays.

    Both streams are strictly increasing, so the ticks each side shares with
    the other come out in the same order on both sides. The always-detecting
    side of every experiment is a run of consecutive ticks: against it, the
    shared ticks are one slice of the other side, and their positions in the
    run are their offsets from its first tick; two runs share their overlap.
    Two streams with tick arrays, as hand-built Detections have, are matched
    by numpy's `isin`, which looks the ticks up in a table when the tick
    range is small and sorts otherwise, so sparse ticks up to MAX_TICK stay
    bounded in memory.
    """
    _check_tick_streams(r1, r2)
    run1, run2 = isinstance(r1, _DetectionRun), isinstance(r2, _DetectionRun)
    if run1 and run2:
        lo = max(r1.first, r2.first)
        size = max(min(r1.first + len(r1), r2.first + len(r2)) - lo, 0)
        f1 = r1.values[lo - r1.first : lo - r1.first + size].copy()
        return _run_ticks(lo, size), f1, r2.values[lo - r2.first : lo - r2.first + size].copy()
    if run2:
        inside, positions = _within(r1.ticks, r2)
        return r1.ticks[inside].copy(), r1.values[inside].copy(), r2.values[positions]
    if run1:
        inside, positions = _within(r2.ticks, r1)
        return r2.ticks[inside].copy(), r1.values[positions], r2.values[inside].copy()
    k1 = np.isin(r1.ticks, r2.ticks)
    k2 = np.isin(r2.ticks, r1.ticks)
    return r1.ticks[k1], r1.values[k1], r2.values[k2]


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    n: int
    stderr: float
    kind: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value, "stderr": self.stderr, "n": self.n}


def _estimate(products: np.ndarray, kind: str) -> CorrelationEstimate:
    """Mean and stderr of the weighted per-pair products."""
    n = int(products.size)
    value = float(products.mean())
    stderr = float(products.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return CorrelationEstimate(value=value, n=n, stderr=stderr, kind=kind)


def _cells(f1: np.ndarray, f2: np.ndarray) -> tuple[int, int, int, int]:
    """How many pairs of the ±1 value sequences fall in each joint-outcome
    cell, in Quadrant order: II = (+1, -1), IJ = (+1, +1), JI = (-1, -1),
    JJ = (-1, +1)."""
    if f1.size != f2.size:
        raise ValueError("coincidence value sequences must have equal length")
    up1, up2 = f1 > 0, f2 > 0
    plus1, plus2 = int(np.count_nonzero(up1)), int(np.count_nonzero(up2))
    ij = int(np.count_nonzero(np.logical_and(up1, up2, out=up1)))
    return plus1 - ij, ij, f1.size - plus1 - plus2 + ij, plus2 - ij


def _spins(values: np.ndarray) -> np.ndarray:
    if not np.all(np.abs(values) == 1):
        raise ValueError("estimator values must be ±1")
    return values


def _cell_estimate(cells: tuple[int, int, int, int], kind: str) -> CorrelationEstimate:
    """Mean and stderr of the ±1 products from the cell counts alone, in
    exact integers: the product sum S = IJ + JI - II - JJ over n pairs gives
    the mean S/n, correctly rounded (bitwise the float64 mean for n up to
    MAX_PAIRS), and the stderr sqrt((n² - S²) / (n²(n - 1))) within an ulp.
    Only the coincidence estimator can be left without pairs."""
    ii, ij, ji, jj = cells
    n = ii + ij + ji + jj
    if n == 0:
        raise EmptyCoincidenceError("no coincidences recorded; the estimator is undefined")
    s = ij + ji - ii - jj
    stderr = math.sqrt((n * n - s * s) / (n * n * (n - 1))) if n > 1 else 0.0
    return CorrelationEstimate(value=s / n, n=n, stderr=stderr, kind=kind)


def _fully_matched(r1: Detections, r2: Detections, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The matched values of the standard and weighted estimators, after
    their checks: every pair detected on both sides, and some pair at all."""
    ticks, f1, f2 = match_coincidences(r1, r2)
    if not len(r1) == len(r2) == ticks.size:
        raise ValueError(f"tick mismatch: the {kind} estimator needs every pair detected on both sides")
    if ticks.size == 0:
        raise ValueError("empty detection lists")
    return f1, f2


def _weighted_products(r1: Detections, r2: Detections, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Per-pair products of the weighted estimator from its fully matched
    values, after its check: exactly one side carrying nonnegative weights."""
    if (r1.weights is None) == (r2.weights is None):
        raise ValueError("exactly one side must carry importance weights")
    weights = r1.weights if r1.weights is not None else r2.weights
    if np.any(weights < 0.0):
        raise ValueError("importance weights must be nonnegative")
    return weights * (f1 * f2)


def correlation_dp(f1: np.ndarray, f2: np.ndarray) -> CorrelationEstimate:
    """Mean ±1 product over coincidences (the distant-pair estimator)."""
    return _cell_estimate(_cells(_spins(f1), _spins(f2)), KIND_COINCIDENCE)


def correlation_standard(r1: Detections, r2: Detections) -> CorrelationEstimate:
    """Mean ±1 product over a fully detected, fully matched ensemble."""
    f1, f2 = _fully_matched(r1, r2, KIND_STANDARD)
    return _cell_estimate(_cells(_spins(f1), _spins(f2)), KIND_STANDARD)


def correlation_weighted(r1: Detections, r2: Detections) -> CorrelationEstimate:
    """Importance-weighted mean product; exactly one side must carry locally
    computed weights (π/2)|cos(s - setting)|."""
    return _estimate(_weighted_products(r1, r2, *_fully_matched(r1, r2, KIND_WEIGHTED)), KIND_WEIGHTED)


@dataclass(frozen=True)
class ExperimentConfig:
    """One full run: pair count, the two settings, estimator mode, which side
    carries the |cos| window or weight, and one seed per actor.

    Seeds default to fixed values (101, 102, 103) so unconfigured runs are
    reproducible.
    """

    n: int
    a: float
    b: float
    mode: str = KIND_COINCIDENCE
    weight_side: int = 1
    offset: int = 1
    source_seed: int = 101
    station1_seed: int = 102
    station2_seed: int = 103

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", integer(self.n, "pair count", 1))
        if self.n > MAX_PAIRS:
            raise ValueError(f"pair count {self.n!r} exceeds MAX_PAIRS = 2**53, past which the estimate is not exact")
        if self.mode not in EXPERIMENT_MODES:
            raise ValueError(f"unknown experiment mode {self.mode!r}")
        object.__setattr__(self, "offset", integer(self.offset, "tick offset", MIN_TICK, MAX_TICK))
        object.__setattr__(self, "source_seed", integer(self.source_seed, "source seed"))
        if self.n - 1 + self.offset > MAX_TICK:
            raise ValueError(f"last tick n - 1 + offset exceeds the int64 maximum {MAX_TICK}")
        st1, st2 = self.station_configs()  # validates the weight side and the station seeds
        object.__setattr__(self, "station1_seed", st1.seed)
        object.__setattr__(self, "station2_seed", st2.seed)

    def station_configs(self) -> tuple[StationConfig, StationConfig]:
        """The two station configs: the weighted side runs its mode's rule, the other always detects."""
        mode1, mode2 = on_side(self.weight_side, WEIGHTED_STATION_MODE[self.mode], MODE_ALWAYS)
        return (
            StationConfig(side=1, setting=self.a, mode=mode1, seed=self.station1_seed, offset=self.offset),
            StationConfig(side=2, setting=self.b, mode=mode2, seed=self.station2_seed, offset=self.offset),
        )


@dataclass(frozen=True)
class ExperimentSummary:
    a: float
    b: float
    n: int
    detections1: int
    detections2: int
    coincidences: int
    coincidence_rate: float
    cells: tuple[int, int, int, int]  # coincidences per joint outcome, in Quadrant order
    estimate: CorrelationEstimate

    def to_dict(self) -> dict:
        return {
            "settings": {"a": self.a, "b": self.b},
            "n": self.n,
            "detections": {"side1": self.detections1, "side2": self.detections2},
            "coincidences": self.coincidences,
            "coincidence_rate": self.coincidence_rate,
            "cells": dict(zip((q.value for q in Quadrant), self.cells)),
            "estimate": self.estimate.to_dict(),
        }


def _trial_blocks(cfg: ExperimentConfig, size: int):
    """Source then the two stations, over consecutive blocks of at most
    `size` pairs: (emissions, side-1 records, side-2 records) per block. The
    emission stream is a function of (n, source seed) only, each station
    sees only its own config, and the blocks join into the whole run."""
    st1, st2 = cfg.station_configs()
    for start in range(0, cfg.n, size):
        emissions = run_source(min(size, cfg.n - start), cfg.source_seed, start)
        yield emissions, run_station(st1, emissions), run_station(st2, emissions)


def run_trial(cfg: ExperimentConfig) -> tuple[Emissions, Detections, Detections]:
    """Source then the two stations, over the whole run at once."""
    (trial,) = _trial_blocks(cfg, cfg.n)
    return trial


def run_experiment(cfg: ExperimentConfig, events_csv=None, debug_hidden: bool = False) -> ExperimentSummary:
    """Full protocol, block by block in blocks of EVENT_LOG_BLOCK pairs:
    source, stations, the event log when `events_csv` is a path (see
    write_event_log), matcher and the coincidence cell counts, plus the
    per-pair products when weighted; then the estimate, taken once over
    all blocks, so it does not depend on them. An estimate without
    coincidences is refused after the full log."""
    weighted = cfg.mode == KIND_WEIGHTED
    products = np.empty(cfg.n) if weighted else None
    cells = [0, 0, 0, 0]
    filled = detections1 = detections2 = 0
    for emissions, r1, r2 in _trial_blocks(cfg, EVENT_LOG_BLOCK):
        if events_csv is not None:
            write_event_log(events_csv, cfg, emissions, r1, r2, debug_hidden)
        if cfg.mode == KIND_COINCIDENCE:
            _, f1, f2 = match_coincidences(r1, r2)
        else:
            f1, f2 = _fully_matched(r1, r2, cfg.mode)
        cells = [total + count for total, count in zip(cells, _cells(f1, f2))]
        if weighted:
            block = _weighted_products(r1, r2, f1, f2)
            products[filled : filled + block.size] = block
            filled += block.size
        detections1 += len(r1)
        detections2 += len(r2)
    coincidences = sum(cells)
    return ExperimentSummary(
        a=cfg.a,
        b=cfg.b,
        n=cfg.n,
        detections1=detections1,
        detections2=detections2,
        coincidences=coincidences,
        coincidence_rate=coincidences / cfg.n,
        cells=tuple(cells),
        estimate=_estimate(products, KIND_WEIGHTED) if weighted else _cell_estimate(cells, cfg.mode),
    )


def chsh_estimate(
    n: int,
    settings: tuple[float, float, float, float] = TSIRELSON_SETTINGS,
    mode: str = KIND_COINCIDENCE,
    base_seed: int = 7,
) -> dict:
    """CHSH from four independent runs at (a,b), (a,b2), (a2,b), (a2,b2).

    Settings order is (a, a2, b, b2); each run gets its own actor seeds
    derived from base_seed, and the weight sits on ExperimentConfig's default
    side.
    """
    base_seed = integer(base_seed, "base seed")  # before the seed arithmetic below
    summaries = []
    for i, (sa, sb) in enumerate(chsh_pairs(settings)):
        cfg = ExperimentConfig(
            n=n,
            a=sa,
            b=sb,
            mode=mode,
            source_seed=base_seed + 100 * i,
            station1_seed=base_seed + 100 * i + 1,
            station2_seed=base_seed + 100 * i + 2,
        )
        summaries.append(run_experiment(cfg))
    return {"chsh": chsh(*(s.estimate.value for s in summaries)), "runs": summaries}


def _plain_rows(ticks: np.ndarray, side2: np.ndarray, values: np.ndarray) -> bytes:
    """Event-log rows `tick,side,value\r\n`, built as one uint8 matrix with a
    row per event and a column per byte that a row may hold: the tick's sign,
    its digits right-aligned, then `,side,` and the value. Unused bytes (a
    plus sign, leading zeros, the minus of +1) are masked out, and the rest
    read in row order are the rows."""
    # Read as uint64, |int64 minimum| (which wraps to itself) is exact too.
    magnitude = np.abs(ticks).view(np.uint64)
    digits = 1 + np.searchsorted(_POWERS_OF_TEN, magnitude, side="right")
    width = int(digits.max(initial=1))
    rows = np.empty((ticks.size, width + 8), dtype=np.uint8)
    rows[:] = np.frombuffer(b"-" + b"0" * width + b",1,-1\r\n", dtype=np.uint8)
    for column in range(width, 0, -1):
        magnitude, digit = np.divmod(magnitude, np.uint64(10))
        rows[:, column] += digit.astype(np.uint8)
    rows[:, width + 2] += side2
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, 0] = ticks < 0
    keep[:, 1 : width + 1] = np.arange(width) >= (width - digits)[:, None]
    keep[:, width + 4] = values < 0
    return rows[keep].tobytes()


def _merged_rows(r1: Detections, r2: Detections) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of both sides' records sorted by (tick, side): their int64
    ticks, their values, and which of them are side 2's. One stable sort of
    side 1's rows followed by side 2's keeps each side's order and puts side
    1 first on a shared tick."""
    ticks = np.concatenate((r1.ticks, r2.ticks), dtype=np.int64)
    order = np.argsort(ticks, kind="stable")
    return ticks[order], np.concatenate((r1.values, r2.values))[order], order >= len(r1)


def write_event_log(
    path,
    cfg: ExperimentConfig,
    emissions: Emissions,
    r1: Detections,
    r2: Detections,
    debug_hidden: bool = False,
) -> None:
    """Per-event CSV of one run block's records, rows sorted by (tick, side).

    Records whose emissions start at pair 0 create the file and its header;
    a later block's records are appended. Every tick of a block precedes
    every tick of the next, so a run's blocks written in order give the
    whole run's log. The rows are formatted and written EVENT_LOG_PIECE at a
    time. The hidden configuration column is written only under
    debug_hidden; honest stations never expose it after emission.
    """
    _check_tick_streams(r1, r2)
    for d in (r1, r2):
        if not np.all(np.abs(d.values) == 1):
            raise ValueError("event log values must be ±1")
    t, v, side2 = _merged_rows(r1, r2)
    first = emissions.first
    with open(path, "ab" if first else "wb") as fh:
        if not first:
            fh.write(b"tick,side,s_hidden,value\r\n" if debug_hidden else b"tick,side,value\r\n")
        row = "{},{},{:.17g},{}\r\n".format
        for start in range(0, t.size, EVENT_LOG_PIECE):
            piece = slice(start, start + EVENT_LOG_PIECE)
            if debug_hidden:
                s_hidden = emissions.s[t[piece] - cfg.offset - first]
                lines = map(row, t[piece].tolist(), (side2[piece] + 1).tolist(), s_hidden.tolist(), v[piece].tolist())
                fh.write("".join(lines).encode())
            else:
                fh.write(_plain_rows(t[piece], side2[piece], v[piece]))
