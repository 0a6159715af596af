"""Strictly local three-actor coincidence simulation.

A source actor emits timestamped pairs that share one hidden configuration
angle; two station actors independently apply setting-dependent acceptance or
weighting rules and record timestamped ±1 outcomes; a matcher intersects the
timestamp sets. Stations never see each other's settings, records, or seeds:
every stage is a pure function of its own inputs, so the no-communication
contract is enforced by the call graph, and running the stages in any order
or thread layout cannot change a byte of the output. Each actor owns an
independent counter-based generator (Philox), which makes whole runs
replayable and lets locality be audited bit for bit.

Detection is encoded by presence of the timestamp: an emission whose local
configuration leaves the detection window simply produces no record. With
acceptance probability |cos(s - setting)| on exactly one side, conditioning
on coincidences reproduces the singlet quadrant statistics exactly, while the
fully-detected ("standard") estimator stays at the sawtooth correlation and
never violates the CHSH bound of 2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, spin_values
from .models import TSIRELSON_SETTINGS, chsh, chsh_pairs

MODE_ACCEPTANCE = "acceptance"
MODE_ALWAYS = "always-detect"

KIND_STANDARD = "standard"
KIND_WEIGHTED = "weighted"
KIND_COINCIDENCE = "coincidence"

EXPERIMENT_MODES = (KIND_COINCIDENCE, KIND_WEIGHTED, KIND_STANDARD)

MAX_TICK = np.iinfo(np.int64).max  # ticks are int64


class EmptyCoincidenceError(RuntimeError):
    """No coincidences at all: the conditioned estimator is undefined."""


def _tick_offset(offset) -> int:
    """The measurement tick offset as a Python int; ticks are integers, so a
    float, a bool or anything else without an exact integer value is refused."""
    if not isinstance(offset, bool):
        try:
            return operator.index(offset)
        except TypeError:
            pass
    raise ValueError(f"tick offset must be an integer, got {offset!r}")


@dataclass(frozen=True)
class Emissions:
    """Columnar stream of source events: strictly increasing integer ticks
    and the shared hidden configuration angle per pair."""

    ticks: np.ndarray
    s: np.ndarray

    def __len__(self) -> int:
        return int(self.ticks.size)


@dataclass(frozen=True)
class Detections:
    """Columnar stream of station events. A missing tick means the particle
    left the detection window; weights are present only when the station was
    asked to emit its local importance weight."""

    ticks: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.ticks.size)


@dataclass(frozen=True)
class StationConfig:
    side: int
    setting: float
    mode: str = MODE_ALWAYS
    seed: int = 0
    offset: int = 1  # measurement tick is emission tick + offset
    emit_weight: bool = False

    def __post_init__(self) -> None:
        if self.side not in (1, 2):
            raise ValueError(f"side must be 1 or 2, got {self.side!r}")
        if self.mode not in (MODE_ACCEPTANCE, MODE_ALWAYS):
            raise ValueError(f"unknown station mode {self.mode!r}")
        if self.mode == MODE_ACCEPTANCE and self.emit_weight:
            raise ValueError("importance weights are only defined in always-detect mode")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        object.__setattr__(self, "offset", _tick_offset(self.offset))
        if self.offset > MAX_TICK:
            raise ValueError(f"tick offset {self.offset!r} exceeds the int64 maximum {MAX_TICK}")


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def run_source(n: int, seed: int) -> Emissions:
    """Emit n pairs at ticks 0..n-1 with configurations drawn uniformly on
    [0, 2π). A pure function of (n, seed); settings never enter."""
    if n < 1:
        raise ValueError(f"pair count must be at least 1, got {n!r}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = _generator(seed)
    return Emissions(
        ticks=np.arange(n, dtype=np.int64),
        s=rng.uniform(0.0, TWO_PI, size=n),
    )


def run_station(cfg: StationConfig, emissions: Emissions) -> Detections:
    """Process the emission stream with purely local information.

    Acceptance mode keeps an emission with probability |cos(s - setting)|
    drawn from the station's own generator; always-detect keeps everything.
    A kept emission records spin_values(side, setting, s) at tick + offset.
    """
    phase = emissions.s - cfg.setting
    values = spin_values(cfg.side, cfg.setting, emissions.s)
    ticks = emissions.ticks + np.int64(cfg.offset)
    if cfg.mode == MODE_ACCEPTANCE:
        rng = _generator(cfg.seed)
        keep = rng.random(len(emissions)) < np.abs(np.cos(phase))
        return Detections(ticks=ticks[keep], values=values[keep])
    weights = None
    if cfg.emit_weight:
        weights = (math.pi / 2.0) * np.abs(np.cos(phase))
    return Detections(ticks=ticks, values=values, weights=weights)


def _check_tick_stream(d: Detections, name: str) -> None:
    if d.ticks.size and not np.all(np.diff(d.ticks) > 0):
        raise ValueError(f"{name} ticks must be strictly increasing and unique")


def match_coincidences(r1: Detections, r2: Detections) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Timestamp-set intersection: (common ticks, side-1 values, side-2
    values), in tick order.

    Both streams are strictly increasing, so the ticks each side shares with
    the other come out in the same order on both sides. numpy's `isin` looks
    them up in a table when the tick range is small and sorts otherwise, so
    sparse ticks up to MAX_TICK stay bounded in memory.
    """
    _check_tick_stream(r1, "side 1")
    _check_tick_stream(r2, "side 2")
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
    n = int(products.size)
    value = float(products.mean())
    stderr = float(products.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return CorrelationEstimate(value=value, n=n, stderr=stderr, kind=kind)


def correlation_dp(f1: np.ndarray, f2: np.ndarray) -> CorrelationEstimate:
    """Mean product over coincidences (the distant-pair estimator)."""
    if f1.size != f2.size:
        raise ValueError("coincidence value sequences must have equal length")
    if f1.size == 0:
        raise EmptyCoincidenceError("no coincidences recorded; the estimator is undefined")
    return _estimate(f1 * f2, KIND_COINCIDENCE)


def _check_fully_matched(r1: Detections, r2: Detections, kind: str) -> None:
    if not np.array_equal(r1.ticks, r2.ticks):
        raise ValueError(f"tick mismatch: the {kind} estimator needs every pair detected on both sides")
    if len(r1) == 0:
        raise ValueError("empty detection lists")


def correlation_standard(r1: Detections, r2: Detections) -> CorrelationEstimate:
    """Mean product over a fully detected, fully matched ensemble."""
    _check_fully_matched(r1, r2, KIND_STANDARD)
    return _estimate(r1.values * r2.values, KIND_STANDARD)


def correlation_weighted(r1: Detections, r2: Detections) -> CorrelationEstimate:
    """Importance-weighted mean product; exactly one side must carry locally
    computed weights (π/2)|cos(s - setting)|."""
    _check_fully_matched(r1, r2, KIND_WEIGHTED)
    if (r1.weights is None) == (r2.weights is None):
        raise ValueError("exactly one side must carry importance weights")
    weights = r1.weights if r1.weights is not None else r2.weights
    if np.any(weights < 0.0):
        raise ValueError("importance weights must be nonnegative")
    return _estimate(weights * (r1.values * r2.values), KIND_WEIGHTED)


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
        if self.n < 1:
            raise ValueError(f"pair count must be at least 1, got {self.n!r}")
        if self.mode not in EXPERIMENT_MODES:
            raise ValueError(f"unknown experiment mode {self.mode!r}")
        if self.weight_side not in (1, 2):
            raise ValueError(f"weight side must be 1 or 2, got {self.weight_side!r}")
        object.__setattr__(self, "offset", _tick_offset(self.offset))
        if self.n - 1 + self.offset > MAX_TICK:
            raise ValueError(f"last tick n - 1 + offset exceeds the int64 maximum {MAX_TICK}")

    def station_configs(self) -> tuple[StationConfig, StationConfig]:
        """Derive the two station configs; in coincidence mode exactly the
        weighted side runs the acceptance window."""
        accept1 = self.mode == KIND_COINCIDENCE and self.weight_side == 1
        accept2 = self.mode == KIND_COINCIDENCE and self.weight_side == 2
        weigh1 = self.mode == KIND_WEIGHTED and self.weight_side == 1
        weigh2 = self.mode == KIND_WEIGHTED and self.weight_side == 2
        st1 = StationConfig(
            side=1,
            setting=self.a,
            mode=MODE_ACCEPTANCE if accept1 else MODE_ALWAYS,
            seed=self.station1_seed,
            offset=self.offset,
            emit_weight=weigh1,
        )
        st2 = StationConfig(
            side=2,
            setting=self.b,
            mode=MODE_ACCEPTANCE if accept2 else MODE_ALWAYS,
            seed=self.station2_seed,
            offset=self.offset,
            emit_weight=weigh2,
        )
        return st1, st2


@dataclass(frozen=True)
class ExperimentSummary:
    a: float
    b: float
    n: int
    detections1: int
    detections2: int
    coincidences: int
    coincidence_rate: float
    estimate: CorrelationEstimate

    def to_dict(self) -> dict:
        return {
            "settings": {"a": self.a, "b": self.b},
            "n": self.n,
            "detections": {"side1": self.detections1, "side2": self.detections2},
            "coincidences": self.coincidences,
            "coincidence_rate": self.coincidence_rate,
            "estimate": self.estimate.to_dict(),
        }


def run_trial(cfg: ExperimentConfig) -> tuple[Emissions, Detections, Detections]:
    """Source then the two stations. The emission stream is a function of
    (n, source seed) only, and each station sees only its own config."""
    emissions = run_source(cfg.n, cfg.source_seed)
    st1, st2 = cfg.station_configs()
    return emissions, run_station(st1, emissions), run_station(st2, emissions)


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Full protocol: source, stations, matcher, estimator."""
    _, r1, r2 = run_trial(cfg)
    return summarize(cfg, r1, r2)


def summarize(cfg: ExperimentConfig, r1: Detections, r2: Detections) -> ExperimentSummary:
    """Matcher and estimator over the two stations' records of one trial."""
    _, f1, f2 = match_coincidences(r1, r2)
    coincidences = int(f1.size)
    if cfg.mode == KIND_COINCIDENCE:
        estimate = correlation_dp(f1, f2)
    elif cfg.mode == KIND_WEIGHTED:
        estimate = correlation_weighted(r1, r2)
    else:
        estimate = correlation_standard(r1, r2)
    return ExperimentSummary(
        a=cfg.a,
        b=cfg.b,
        n=cfg.n,
        detections1=len(r1),
        detections2=len(r2),
        coincidences=coincidences,
        coincidence_rate=coincidences / cfg.n,
        estimate=estimate,
    )


def chsh_estimate(
    n: int,
    settings: tuple[float, float, float, float] = TSIRELSON_SETTINGS,
    mode: str = KIND_COINCIDENCE,
    weight_side: int = 1,
    base_seed: int = 7,
    offset: int = 1,
) -> dict:
    """CHSH from four independent runs at (a,b), (a,b2), (a2,b), (a2,b2).

    Settings order is (a, a2, b, b2); each run gets its own actor seeds
    derived from base_seed.
    """
    summaries = []
    for i, (sa, sb) in enumerate(chsh_pairs(settings)):
        cfg = ExperimentConfig(
            n=n,
            a=sa,
            b=sb,
            mode=mode,
            weight_side=weight_side,
            offset=offset,
            source_seed=base_seed + 100 * i,
            station1_seed=base_seed + 100 * i + 1,
            station2_seed=base_seed + 100 * i + 2,
        )
        summaries.append(run_experiment(cfg))
    return {"chsh": chsh(*(s.estimate.value for s in summaries)), "runs": summaries}


def write_event_log(
    path,
    cfg: ExperimentConfig,
    emissions: Emissions,
    r1: Detections,
    r2: Detections,
    debug_hidden: bool = False,
) -> None:
    """Per-event CSV, rows sorted by (tick, side).

    The hidden configuration column is written only under debug_hidden;
    honest stations never expose it after emission.
    """
    ticks = np.concatenate((r1.ticks, r2.ticks))
    values = np.concatenate((r1.values, r2.values))
    if not np.all(np.abs(values) == 1):
        raise ValueError("event log values must be ±1")
    order = np.argsort(ticks, kind="stable")  # side 1 first on equal ticks
    ticks = ticks[order]
    values = values[order]
    side2 = order >= len(r1)
    if debug_hidden:
        header = "tick,side,s_hidden,value\r\n"
        s_hidden = emissions.s[ticks - cfg.offset]
        rows = map("{},{},{:.17g},{}\r\n".format, ticks.tolist(), (side2 + 1).tolist(), s_hidden.tolist(),
                   values.tolist())
    else:
        header = "tick,side,value\r\n"
        # A row is its tick and one of four tails, indexed 2 * (side - 1) + (value == +1).
        tails = (",1,-1\r\n", ",1,1\r\n", ",2,-1\r\n", ",2,1\r\n")
        rows = map("{}{}".format, ticks.tolist(), map(tails.__getitem__, (2 * side2 + (values > 0)).tolist()))
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.write("".join(rows))
