"""Angles, half-open detection arcs, and ±1 spin values on the unit circle.

Angles are floats or arrays of floats in radians; :func:`normalize` maps
either to the canonical representative in [0, 2π). Detection arcs come in two
families, I(a) = [a - π/2, a + π/2) and J(a) = [a + π/2, a + 3π/2), which
partition the circle for every setting a and satisfy I(a + π) = J(a);
:func:`spin_values` reads +1 on I and -1 on J, vectorized over configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# Absorbs float rounding at arc endpoints. Boundary sets have measure zero,
# so no statistic can depend on this choice.
BOUNDARY_EPS = 1e-12

# spin_values reduces phases in (-2π, 4π) without np.fmod. Doubling is exact,
# so this is the float 2π times two, the end of Sterbenz's range for t - 2π.
# Settings and configurations in [0, 2π) put every phase inside it.
SPIN_PHASE_BOUND = 2.0 * TWO_PI


def normalize(x):
    """Canonical representative of x in [0, 2π): a float for a scalar, an
    array for an array. Zero and multiples of 2π, of either sign, map to 0.0."""
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():  # checked first, so np.mod never warns
        raise ValueError(f"angle must be finite, got {x!r}" if arr.ndim == 0 else "angles must be finite")
    r = np.mod(arr, TWO_PI)
    if r.ndim == 0:
        return 0.0 if r >= TWO_PI else float(r)
    r[r >= TWO_PI] = 0.0  # adding 2π to a tiny negative can round up to the period
    return r


def on_side(side: int, value, other, name: str = "weight side") -> tuple:
    """The (side 1, side 2) pair with `value` on `side`, `other` on the other
    side; ValueError unless side is 1 or 2. The one place a side is decided.
    Being its own inverse, it also maps a (side 1, side 2) pair to (side, other)."""
    if side not in (1, 2):
        raise ValueError(f"{name} must be 1 or 2, got {side!r}")
    return (value, other) if side == 1 else (other, value)


@dataclass(frozen=True)
class Arc:
    """Half-open arc [start, start + length) with wraparound."""

    start: float
    length: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", normalize(self.start))
        if not (0.0 < self.length <= TWO_PI):
            raise ValueError(f"arc length must lie in (0, 2π], got {self.length!r}")

    def intervals(self) -> list[tuple[float, float]]:
        """The arc as one or two plain sub-intervals of [0, 2π]."""
        hi = self.start + self.length
        if hi <= TWO_PI:
            return [(self.start, hi)]
        return [(self.start, TWO_PI), (0.0, hi - TWO_PI)]


def arc_I(a: float) -> Arc:
    """Detection arc I(a) = [a - π/2, a + π/2)."""
    return Arc(a - HALF_PI, math.pi)


def arc_J(a: float) -> Arc:
    """Detection arc J(a) = [a + π/2, a + 3π/2), the complement of I(a)."""
    return Arc(a + HALF_PI, math.pi)


def arc_intersect(x: Arc, y: Arc) -> list[Arc]:
    """Pairwise-disjoint arcs whose union is x ∩ y as a point set.

    Pieces are unwrapped (each fits inside [0, 2π]) so downstream integrals
    run over plain intervals; a component crossing 0 shows up as two pieces.
    Slivers shorter than BOUNDARY_EPS are boundary ties and are dropped.
    """
    pieces: list[tuple[float, float]] = []
    for lo1, hi1 in x.intervals():
        for lo2, hi2 in y.intervals():
            lo = max(lo1, lo2)
            hi = min(hi1, hi2)
            if hi - lo > BOUNDARY_EPS:
                pieces.append((lo, hi - lo))
    pieces.sort()
    return [Arc(start, length) for start, length in pieces]


def spin_values(side: int, setting: float, s) -> np.ndarray:
    """±1 spin outcomes at configurations s, as an int8 array.

    Side 1 reads +1 on I(setting) and -1 on J(setting); side 2 uses the
    opposite signs, so equal settings are perfectly anti-correlated. Arcs are
    half-open: the left endpoint belongs to the arc, the right one does not.
    """
    sign, _ = on_side(side, 1, -1, "side")
    if not math.isfinite(setting):  # checked first, so inf - inf never warns
        raise ValueError("angles must be finite")
    # One float buffer: the phase past the left endpoint of I(setting).
    t = np.asarray(np.subtract(s, setting - HALF_PI, dtype=float))
    # np.mod's own arithmetic, without its division: fmod, then one period
    # added to a negative remainder. Only the sign of a zero can differ (-0.0
    # stays), which no comparison below sees. On (-2π, 4π) fmod itself is not
    # needed: it leaves t in (-2π, 2π) as it is, and for t in [2π, 4π) its
    # remainder is t - 2π, which float subtraction gives exactly (Sterbenz:
    # 2π <= t <= 2·2π). NaN fails both range tests.
    if -TWO_PI < t.min(initial=0.0) and t.max(initial=0.0) < SPIN_PHASE_BOUND:
        np.subtract(t, TWO_PI, out=t, where=t >= TWO_PI)
    else:
        if not np.isfinite(t).all():  # checked first, so np.fmod never warns
            raise ValueError("angles must be finite")
        np.fmod(t, TWO_PI, out=t)
    np.add(t, TWO_PI, out=t, where=t < 0.0)
    # Side 1 reads +1 for t in [0, π - BOUNDARY_EPS), and for t within
    # BOUNDARY_EPS below the period: a left-endpoint tie that rounding pushed there.
    plus = np.less(t, math.pi - BOUNDARY_EPS, out=np.empty(t.shape, dtype=bool))
    plus |= t >= TWO_PI - BOUNDARY_EPS
    values = plus.view(np.int8)  # 1 where plus, else 0; becomes ±1 in place
    values *= 2 * sign
    values -= sign
    return values
