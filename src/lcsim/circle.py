"""Angles, half-open detection arcs, and ±1 spin values on the unit circle.

Angles are floats or arrays of floats in radians; :func:`normalize` maps
either to the canonical representative in [0, 2π). Detection arcs come in two
families, I(a) = [a - π/2, a + π/2) and J(a) = [a + π/2, a + 3π/2), which
partition the circle for every setting a and satisfy I(a + π) = J(a);
:func:`spin_values` reads +1 on I and -1 on J, vectorized over configurations.

Because float subtraction rounds monotonically, the computed phase
s - (setting - π/2) never decreases as s grows, so on a block of nearby
configurations the spin rule is a step function of s itself. spin_values
classifies such a block by comparing s with at most a few per-setting
breakpoints, each the least float s whose phase reaches one of the rule's
six phase flips (PHASE_FLIPS). They are found by an exact search over the
float64 bit patterns and kept in a bounded cache per (flip, setting), so
the output is the rule's, bit for bit.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# Absorbs float rounding at arc endpoints. Boundary sets have measure zero,
# so no statistic can depend on this choice.
BOUNDARY_EPS = 1e-12

# spin_values classifies blocks whose phases lie in (-2π, 4π) by breakpoints,
# without reducing them. Doubling is exact, so this is the float 2π times
# two, the end of Sterbenz's range for t - 2π. Settings and configurations
# in [0, 2π) put every phase inside it.
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


def integer(value, name: str, lo: int = 0, hi: int | None = None) -> int:
    """`value` as a Python int, so products of it are exact. ValueError
    unless it is an integer of at least lo and, when hi is given, at most hi:
    a numpy integer passes, a bool, a float or a string does not. The one
    rule of every count, size, seed, offset, grid and side."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < lo or (hi is not None and number > hi):
        bounds = "" if hi is None else f" and at most {hi}"
        raise ValueError(f"{name} must be an integer of at least {lo}{bounds}, got {value!r}")
    return number


def on_side(side: int, value, other, name: str = "weight side") -> tuple:
    """The (side 1, side 2) pair with `value` on `side`, `other` on the other
    side; ValueError unless side is 1 or 2 by :func:`integer`. The one place
    a side is decided. Being its own inverse, it also maps a (side 1, side 2)
    pair to (side, other)."""
    return (value, other) if integer(side, name, 1, 2) == 1 else (other, value)


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


# Side 1 reads +1 on phases in [0, _MINUS_FROM) and [_PLUS_FROM, 2π): a
# left-endpoint tie that rounding pushed just below the period counts as 0.
_MINUS_FROM = math.pi - BOUNDARY_EPS
_PLUS_FROM = TWO_PI - BOUNDARY_EPS

#: Bound on the (flip, c) pairs whose breakpoint spin_values keeps; a run
#: needs at most six per setting.
SPIN_BREAKPOINT_CACHE = 4096


def _reads_plus(t: np.ndarray) -> np.ndarray:
    """Whether side 1 reads +1 at each phase t in [0, 2π), as a new bool array."""
    flag = np.less(t, _MINUS_FROM, out=np.empty(t.shape, dtype=bool))
    flag |= t >= _PLUS_FROM
    return flag


def _key(x: float) -> int:
    """An integer key in float order; consecutive floats have consecutive
    keys, and -0.0 sits just below 0.0."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -1 - (bits & 0x7FFF_FFFF_FFFF_FFFF)


def _float(key: int) -> float:
    """The float of a key; the inverse of _key."""
    (x,) = struct.unpack("<d", struct.pack("<q", key if key >= 0 else -1 - key))
    return x if key >= 0 else -x


_KEY_RANGE = (_key(-math.inf), _key(math.inf))


def _least(holds, guess: float) -> float:
    """The least float x with holds(x), for a predicate that is false below
    some float and true from it on, at least between -inf and inf: galloping
    from `guess` over the float keys to a bracket, then bisection."""
    lo = hi = _key(guess)
    step = 1
    while holds(_float(lo)):
        hi, lo, step = lo, max(lo - step, _KEY_RANGE[0]), 2 * step
    while not holds(_float(hi)):
        lo, hi, step = hi, min(hi + step, _KEY_RANGE[1]), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(_float(mid)):
            hi = mid
        else:
            lo = mid
    return _float(hi)


#: The phases in (-2π, 2·2π) where the spin rule flips, in increasing order,
#: starting from +1 just above -2π: where t + 2π reaches π - BOUNDARY_EPS and
#: 2π - BOUNDARY_EPS, where t does, and where t - 2π does. Each is the least
#: float phase at which the rule, on the phase as normalize reduces it, takes
#: its new value, searched from a float within a few ulps of it.
PHASE_FLIPS = tuple(
    _least(lambda t, plus=bool(k % 2): _reads_plus(normalize(np.array([t])))[0] == plus, start + edge)
    for k, (start, edge) in enumerate(itertools.product((-TWO_PI, 0.0, TWO_PI), (_MINUS_FROM, _PLUS_FROM)))
)


@lru_cache(maxsize=SPIN_BREAKPOINT_CACHE)
def _breakpoint(flip: float, c: float) -> float:
    """The least float s whose phase s - c, as float subtraction rounds it,
    reaches `flip`. Near s = 0 floats are much denser than near c, so this
    can lie some 10**12 floats away from flip + c, the start of the search."""
    return _least(lambda s: s - c >= flip, flip + c)


def spin_values(side: int, setting: float, s) -> np.ndarray:
    """±1 spin outcomes at configurations s, as an int8 array.

    Side 1 reads +1 on I(setting) and -1 on J(setting); side 2 uses the
    opposite signs, so equal settings are perfectly anti-correlated. Arcs are
    half-open: the left endpoint belongs to the arc, the right one does not.

    The rule reads the phase t = s - c past the left endpoint c = setting - π/2
    of I(setting), reduced to [0, 2π): +1 below π - BOUNDARY_EPS and from
    2π - BOUNDARY_EPS on. Float subtraction rounds monotonically, so t, as
    computed, never decreases as s grows. Where every phase of a block lies
    in (-2π, 2·2π), the rule is a step function of t that flips at the six
    fixed floats PHASE_FLIPS, so its value at s is its parity of breakpoints
    passed: the breakpoint of a flip T is the least float s whose computed
    phase reaches T (_breakpoint, cached per flip and c). Applied to the
    block's least and greatest s, the same monotonicity gives the block's
    phase range; it decides the path and which flips lie inside the block,
    at most three for configurations in [0, 2π), each one comparison per
    element. Other blocks, NaN and infinities included, reduce every phase
    with normalize, which refuses non-finite ones.
    """
    sign, _ = on_side(side, 1, -1, "side")
    if not math.isfinite(setting):  # checked first, so inf - inf never warns
        raise ValueError("angles must be finite")
    c = float(setting - HALF_PI)
    s = np.asarray(s, dtype=float)
    # The least and greatest phase of the block; NaN fails both range tests.
    lo = float(s.min(initial=math.inf)) - c
    hi = float(s.max(initial=-math.inf)) - c
    if -TWO_PI < lo and hi < SPIN_PHASE_BOUND:
        # flag marks the values past an odd number of the flips inside the
        # block; every value is past the flips below it. Side 1 reads +1
        # past an even number in all.
        flag = np.zeros(s.shape, dtype=bool)
        passed = np.empty(s.shape, dtype=bool)
        for flip in PHASE_FLIPS:
            if lo < flip <= hi:
                flag ^= np.greater_equal(s, _breakpoint(flip, c), out=passed)
        if sum(flip <= lo for flip in PHASE_FLIPS) % 2 == 0:
            sign = -sign
    else:
        flag = _reads_plus(np.asarray(normalize(np.subtract(s, c))))
    values = flag.view(np.int8)  # 1 where flag, else 0; becomes ±1 in place
    values *= 2 * sign
    values -= sign
    return values
