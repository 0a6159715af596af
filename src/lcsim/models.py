"""Rotation-invariant pair densities on the torus diagonal and their quadrant
statistics.

A :class:`CandidateModel` is a triple of nonnegative 2π-periodic profiles
(rho, p1, p2) together with a scalar normalization. The induced pair measure
is supported on the diagonal {s1 = s2} and has line density

    scale * rho(s) * p1(s - a) * p2(s - b)

against ds, where a and b are the analyzer settings. Settings enter only
through the shifted arguments, so rotation invariance is structural rather
than asserted. Only the product of the factors is observable; the split and
the scale are conventions, and the total mass is a computed diagnostic.

Quadrant tables hold the masses of the four joint-outcome cells in
:class:`Quadrant` order on their last axis. Both backends broadcast their
settings to shape (..., 4). :func:`quadrant_table_analytic` gives the singlet
closed forms, ½cos²((b-a)/2) on matched cells and ½sin²((b-a)/2) on mixed ones.
:func:`quadrant_table_quadrature` cuts an arbitrary candidate's circle at the
four detection-arc endpoints and the shifted profile kinks, integrates every
smooth piece with one Gauss-Legendre rule and sums it into the cell it lies
in; :func:`quadrature_error_bound` bounds, a priori, how far such a table
lies from the exact cell masses. :func:`correlation` is the one signed sum
that turns a table of either backend into a pair correlation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .circle import BOUNDARY_EPS, HALF_PI, TWO_PI, normalize, on_side, real, reals
from .circle import arc_intersect  # noqa: F401  (module attribute patched by perfbench/layers.py)

#: Tolerance on |total mass - 1| before correlations are considered defined.
MASS_TOL = 1e-6

#: Density nodes that :func:`quadrant_table_quadrature` evaluates at once:
#: 96 KiB a float array, below glibc's initial 128 KiB mmap threshold, so the
#: cost of a table does not depend on what was allocated before.
QUADRATURE_BLOCK = 12288

#: Gauss-Legendre nodes a piece gets where the density is not a polynomial.
GAUSS_NODES = 16

#: Gauss-Legendre nodes a piece gets where every factor is sampled or flat.
#: Every sample angle is a cut, so the density is a polynomial of degree at
#: most 3 on each piece, which 2 nodes integrate exactly.
POLYNOMIAL_NODES = 2

#: Unit roundoff u: a rounded float operation errs by at most u relatively.
UNIT_ROUNDOFF = 2.0**-53

#: Rounding allowances of :func:`quadrature_error_bound`, in units of u. Each
#: cut, node and shifted argument of the rule lies within ANGLE_ROUNDING of
#: its exact value (at most seven roundings of angles below 4.5π), and each
#: profile value within FACTOR_ROUNDING times the profile's peak (numpy's cos
#: within 4 ulps and a square, or the five operations of an interpolation).
ANGLE_ROUNDING = 32.0 * math.pi
FACTOR_ROUNDING = 24.0

#: CHSH setting quadruple (a, a2, b, b2) attaining the 2√2 maximum.
TSIRELSON_SETTINGS = (0.0, HALF_PI, 0.25 * math.pi, 0.75 * math.pi)


class NormalizationError(ValueError):
    """An operation needed a unit-mass model; the message carries the mass."""


class Quadrant(Enum):
    """Joint-outcome cell: (arc family for side 1) × (arc family for side 2)."""

    II = "IxI"
    IJ = "IxJ"
    JI = "JxI"
    JJ = "JxJ"

    @property
    def index(self) -> int:
        """Position of the cell on the last axis of a quadrant table."""
        return list(Quadrant).index(self)


#: Each builtin profile: name -> (function, the scale that gives the
#: one-sided candidate unit mass, angles in [0, 2π) where it is not smooth,
#: its top frequency F). Between its kinks a builtin equals a trigonometric
#: polynomial of degree F whose largest value is 1, the builtin's peak.
BUILTINS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], float, tuple[float, ...], int]] = {
    "abs-cos": (lambda x: np.abs(np.cos(x)), 0.25, (HALF_PI, 3.0 * HALF_PI), 1),
    "cos-squared": (lambda x: np.cos(x) ** 2, 1.0 / math.pi, (), 2),
    "uniform": (np.ones_like, 1.0 / TWO_PI, (), 0),
}


@dataclass(frozen=True)
class Profile:
    """Nonnegative 2π-periodic profile.

    Either one of the named builtins or N uniformly spaced samples (values at
    the N angles of :meth:`kink_angles`) evaluated with periodic linear
    interpolation.
    """

    kind: str
    samples: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str):
            raise ValueError(f"profile kind must be a string, got {self.kind!r}")
        if self.kind == "samples":
            values = reals(self.samples, "profile samples")
            if values.ndim != 1 or values.size < 2:
                raise ValueError("sampled profile needs a list of at least two samples")
            if np.any(values < 0.0):
                raise ValueError("profile samples must be nonnegative")
            # Interpolation slopes reach the largest sample times N / 2π; an
            # overflowing slope gives -inf or nan without any warning.
            if not math.isfinite(float(values.max()) * values.size):
                raise ValueError(
                    f"profile samples are too large: the largest times their count {values.size} overflows a float"
                )
            object.__setattr__(self, "samples", tuple(float(v) for v in values))
        elif self.kind in BUILTINS:
            if self.samples is not None:
                raise ValueError("builtin profiles carry no samples")
        else:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    @classmethod
    def from_samples(cls, values) -> "Profile":
        return cls(kind="samples", samples=values)

    def __call__(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        if self.kind != "samples":
            return BUILTINS[self.kind][0](xs)
        if not np.isfinite(xs).all():
            raise ValueError("angles must be finite")
        nodes, values = self._periodic_nodes
        return np.interp(xs % TWO_PI, nodes, values)

    @cached_property
    def _periodic_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """The sample angles and values, each padded with its neighbours one
        period away: what ``np.interp(..., period=2π)`` builds on every
        call, built once, so the values are the same bit for bit."""
        nodes, values = self.kink_angles(), np.array(self.samples)
        return (
            np.concatenate((nodes[-1:] - TWO_PI, nodes, nodes[:1] + TWO_PI)),
            np.concatenate((values[-1:], values, values[:1])),
        )

    @property
    def peak(self) -> float:
        """The profile's largest value: its largest sample, or 1 for every builtin."""
        return max(self.samples) if self.kind == "samples" else 1.0

    @property
    def slope(self) -> float:
        """Bound on the interpolation slopes of a sampled profile: its largest
        step between neighbouring samples over their spacing 2π/N."""
        values = np.array(self.samples)
        return float(np.abs(np.diff(values, append=values[0])).max()) * values.size / TWO_PI

    def kink_angles(self) -> np.ndarray:
        """Angles in [0, 2π) where the profile is not smooth; quadrature cuts
        here. For a sampled profile these are its N sample angles."""
        if self.kind == "samples":
            return np.linspace(0.0, TWO_PI, len(self.samples), endpoint=False)
        return np.array(BUILTINS[self.kind][2], dtype=float)

    def to_dict(self) -> dict:
        if self.kind == "samples":
            return {"samples": list(self.samples)}
        return {"builtin": self.kind}

    @classmethod
    def from_dict(cls, doc: dict) -> "Profile":
        if not isinstance(doc, dict):
            raise ValueError(f"profile document must be an object, got {doc!r}")
        if ("builtin" in doc) == ("samples" in doc):
            raise ValueError("profile document needs exactly one of the 'builtin' and 'samples' fields")
        if "builtin" in doc:
            return cls(doc["builtin"])
        return cls.from_samples(doc["samples"])


@dataclass(frozen=True)
class CandidateModel:
    """Diagonal pair-measure candidate: source profile, two apparatus profiles
    and a scalar normalization."""

    rho: Profile
    p1: Profile
    p2: Profile
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", real(self.scale, "model scale"))
        if not self.scale > 0.0:
            raise ValueError(f"model scale must be positive, got {self.scale!r}")
        # The density's peak times the circle's length bounds every density
        # value and every quadrature sum. Taken in the density's own product
        # order, a finite bound keeps numpy from overflowing on this model.
        bound = self.scale * self.rho.peak * self.p1.peak * self.p2.peak * TWO_PI
        if not math.isfinite(bound):
            raise ValueError(
                f"model is too large: scale {self.scale!r} times the profile peaks times 2π overflows a float"
            )

    def density(self, s, a: float, b: float) -> np.ndarray:
        """Line density at diagonal configuration(s) s for settings (a, b);
        the settings may be arrays that broadcast against s."""
        arr = np.asarray(s, dtype=float)
        return self.scale * self.rho(arr) * self.p1(arr - a) * self.p2(arr - b)

    @classmethod
    def one_sided(cls, name: str, weight_side: int = 1) -> "CandidateModel":
        """Unit-mass builtin candidate `name`: its profile on the weighted side, all else flat."""
        flat = Profile("uniform")
        p1, p2 = on_side(weight_side, Profile(name), flat)
        return cls(rho=flat, p1=p1, p2=p2, scale=BUILTINS[name][1])

    def normalized(self) -> "CandidateModel":
        """Rescale so the total mass at equal settings is 1."""
        mass = float(quadrant_table_quadrature(self, 0.0, 0.0).sum())
        if mass <= 0.0:
            raise ValueError("cannot normalize a model with zero mass")
        return replace(self, scale=self.scale / mass)

    def to_dict(self) -> dict:
        return {
            "rho": self.rho.to_dict(),
            "p1": self.p1.to_dict(),
            "p2": self.p2.to_dict(),
            "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CandidateModel":
        if not isinstance(doc, dict):
            raise ValueError(f"model document must be an object, got {type(doc).__name__}")
        for key in ("rho", "p1", "p2"):
            if key not in doc:
                raise ValueError(f"model document is missing the {key!r} field")
        return cls(*(Profile.from_dict(doc[key]) for key in ("rho", "p1", "p2")), scale=doc.get("scale", 1.0))


def save_model(path, model: CandidateModel) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2, sort_keys=True) + "\n")


def load_model(path) -> CandidateModel:
    """Read a model file; a file without an explicit scale is normalized."""
    doc = json.loads(Path(path).read_text())
    model = CandidateModel.from_dict(doc)
    if "scale" not in doc:
        model = model.normalized()
    return model


def quadrant_table_analytic(a, b) -> np.ndarray:
    """Singlet closed forms in :class:`Quadrant` order, shape (..., 4) for
    broadcast settings (a, b): ½cos²((b-a)/2) on matched cells, ½sin²((b-a)/2)
    on mixed ones. Each square is ``x*x``, the correctly rounded product;
    libm ``pow(x, 2)`` rounds some of them the other way."""
    half = 0.5 * np.subtract(b, a, dtype=float)
    table = np.empty(np.shape(half) + (4,))
    c, s = np.cos(half), np.sin(half)
    table[..., 0] = table[..., 3] = 0.5 * (c * c)
    table[..., 1] = table[..., 2] = 0.5 * (s * s)
    return table


def quadrant_prob_quadrature(m: CandidateModel, a, b, quadrant: Quadrant):
    """Mass of one joint-outcome cell: one entry of :func:`quadrant_table_quadrature`."""
    return quadrant_table_quadrature(m, a, b)[..., quadrant.index][()]


def _polynomial(m: CandidateModel) -> bool:
    """Whether every factor of `m` is sampled or flat, so its density is a
    polynomial of degree at most 3 on every piece."""
    return all(p.kind == "samples" or BUILTINS[p.kind][3] == 0 for p in (m.rho, m.p1, m.p2))


def _gauss_nodes(m: CandidateModel) -> int:
    """Nodes of the rule on every piece of `m`."""
    return POLYNOMIAL_NODES if _polynomial(m) else GAUSS_NODES


def _piece_count(m: CandidateModel) -> int:
    """Pieces of each setting's circle: 5 between 0, 2π and the four arc
    endpoints, and one more for every profile kink."""
    return 5 + sum(p.kink_angles().size for p in (m.rho, m.p1, m.p2))


def quadrant_table_quadrature(m: CandidateModel, a, b) -> np.ndarray:
    """The four cell masses, in :class:`Quadrant` order, at settings (a, b).

    `a` and `b` broadcast; the result has shape (..., 4). Each setting's
    circle, taken from a (s' = s - a), is cut at 0, 2π, the four arc
    endpoints and every profile kink, so each piece lies in the cell of its
    left end and carries a smooth density that one Gauss-Legendre rule
    integrates: POLYNOMIAL_NODES nodes when every factor is sampled or flat,
    which is exact, and GAUSS_NODES otherwise. Zero-length pieces carry zero
    mass, so a cell that no piece lies in gets exactly 0. Settings go in
    blocks of at most QUADRATURE_BLOCK density nodes (at least one setting
    each); every piece sums its own nodes, so the tables do not depend on
    the block size.
    """
    nodes = _gauss_nodes(m)
    x, w = np.polynomial.legendre.leggauss(nodes)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    a, b = normalize(a.ravel()), normalize(b.ravel())
    # Side offsets (0, b - a): J of a side is [offset + π/2, offset - π/2).
    # Separations within BOUNDARY_EPS of 0 or π are ties: the four arc
    # endpoints then coincide exactly, so the two empty cells get exactly 0.
    d = normalize(b - a)
    d[np.minimum(d, TWO_PI - d) <= BOUNDARY_EPS] = 0.0
    d[np.abs(d - math.pi) <= BOUNDARY_EPS] = math.pi
    offsets = np.stack((np.zeros_like(d), d), axis=1)
    kinks = [p.kink_angles() for p in (m.rho, m.p1, m.p2)]
    step = max(1, QUADRATURE_BLOCK // (nodes * _piece_count(m)))
    out = np.empty((a.size, 4))
    for start in range(0, a.size, step):
        blk = slice(start, start + step)
        off = offsets[blk, :, None]
        g = len(off)
        j_lo, j_hi = normalize(off + HALF_PI), normalize(off - HALF_PI)
        frame_kinks = [kinks[0] - a[blk, None], kinks[1] + off[:, 0], kinks[2] + off[:, 1]]
        cuts = normalize(np.concatenate([j_lo[..., 0], j_hi[..., 0], *frame_kinks], axis=1))
        cuts = np.sort(np.pad(cuts, ((0, 0), (1, 1)), constant_values=(0.0, TWO_PI)), axis=1)
        lo, half = cuts[:, :-1], 0.5 * np.diff(cuts, axis=1)
        s = (lo + half + a[blk, None])[..., None] + half[..., None] * x
        mass = half * (m.density(s, a[blk, None, None], b[blk, None, None]) * w).sum(-1)
        # The endpoints are cuts, so a piece lies wholly in J iff its left end does.
        in_j = (lo[:, None] >= j_lo) ^ (lo[:, None] >= j_hi) ^ (j_lo > j_hi)
        cell = 4 * np.arange(g)[:, None] + 2 * in_j[:, 0] + in_j[:, 1]
        out[blk] = np.bincount(cell.ravel(), weights=mass.ravel(), minlength=4 * g).reshape(g, 4)
    return out.reshape(*shape, 4)


def _derivative_bound(m: CandidateModel, k: int) -> float:
    """Bound on the k-th derivative of `m`'s density on any piece.

    On a piece each builtin factor equals a trigonometric polynomial, so
    their product T is one of top frequency F, the sum of theirs, and
    Bernstein's inequality gives |T^(j)| <= F^j max|T| <= F^j times their
    peaks. Each sampled factor is linear there, at most its peak in size
    and its slope in steepness, so Leibniz's rule leaves, for the i factors
    it differentiates, k!/(k-i)! times the products of i slopes and the
    other peaks.
    """
    trig = [p for p in (m.rho, m.p1, m.p2) if p.kind != "samples"]
    frequency = sum(BUILTINS[p.kind][3] for p in trig)
    # coefficients[i]: the sum, over the i sampled factors differentiated, of
    # their slopes times the scale and every other peak.
    coefficients = np.array([m.scale * math.prod(p.peak for p in trig)])
    for p in (m.rho, m.p1, m.p2):
        if p.kind == "samples":
            coefficients = np.convolve(coefficients, [p.peak, p.slope])
    return float(sum(math.perm(k, i) * c * frequency ** (k - i) for i, c in enumerate(coefficients) if i <= k))


def quadrature_error_bound(m: CandidateModel, tables) -> np.ndarray:
    """A-priori bound, one per quadrant table of `m`, on how far any cell of
    :func:`quadrant_table_quadrature` lies from the exact mass, for the
    settings as that function takes them (reduced to [0, 2π), a separation
    within BOUNDARY_EPS of 0 or π a tie). Near a tie it bounds the distance
    to the tie's masses, not to those of the settings given: the uniform
    model at (0, 9e-13) reads exactly 0 in its mixed cells, whose exact mass
    is 9e-13 / 2π = 1.43e-13, and its bound is 3.15e-14.

    Truncation: the n-node Gauss-Legendre remainder of a piece of length L is
    at most L^(2n+1) (n!)⁴ / ((2n+1) ((2n)!)³) max|f^(2n)|. The cuts 0, π/2,
    3π/2 and 2π are always there, so no piece is longer than π and the
    lengths sum to 2π: all pieces together leave at most 2π π^(2n) times the
    rest. A polynomial piece of degree at most 3 leaves nothing at 2 nodes.
    Rounding: a cell is a sum of nonnegative terms, each the product of
    density values, weights and half-lengths, so the products and sums err
    by at most γ_2k = 2ku / (1 - 2ku) times the cell itself, k counting
    their operations (doubled to cover the step from the exact masses to the
    table's own). To that come absolute errors, each doubled the same way:
    profile values within FACTOR_ROUNDING u of their peaks and angles within
    ANGLE_ROUNDING u, whose effect on the density the first-derivative bound
    gives, over the circle's length 2π; and the four moved arc endpoints,
    which shift at most the density's peak times their error between cells.
    """
    n = _gauss_nodes(m)
    truncation = 0.0
    if not _polynomial(m):
        remainder = math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(2 * n) ** 3)
        truncation = TWO_PI * math.pi ** (2 * n) * remainder * _derivative_bound(m, 2 * n)
    k = 2 * (3 + 2 + (n - 1) + 2 + (_piece_count(m) - 1))
    gamma = k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)
    peak = _derivative_bound(m, 0)  # the scale times the profile peaks
    spread = 3.0 * FACTOR_ROUNDING * peak + ANGLE_ROUNDING * _derivative_bound(m, 1)
    absolute = 2.0 * UNIT_ROUNDOFF * (TWO_PI * spread + 4.0 * ANGLE_ROUNDING * peak)
    return truncation + absolute + gamma * np.asarray(tables, dtype=float).max(axis=-1)


def unit_mass_table(m: CandidateModel, a: float, b: float) -> np.ndarray:
    """The quadrant table at (a, b); NormalizationError unless its cells sum
    to 1 within MASS_TOL."""
    table = quadrant_table_quadrature(m, a, b)
    mass = table.sum()
    if not abs(mass - 1.0) <= MASS_TOL:  # a nan mass fails too
        raise NormalizationError(
            f"model is not normalized: total mass {mass:.9g} at settings ({a!r}, {b!r})"
        )
    return table


def correlation(table):
    """Pair correlation of quadrant tables: the signed sum -II + IJ + JI - JJ
    over the last axis, added left to right. Matched cells carry f1*f2 = -1,
    mixed ones +1; on the closed forms it equals -cos(b - a)."""
    t = np.asarray(table, dtype=float)
    return -t[..., 0] + t[..., 1] + t[..., 2] - t[..., 3]


def chsh_pairs(settings):
    """The four CHSH setting pairs ((a,b), (a,b2), (a2,b), (a2,b2)) of the
    quadruple (a, a2, b, b2), in the order :func:`chsh` takes them."""
    a, a2, b, b2 = settings
    return ((a, b), (a, b2), (a2, b), (a2, b2))


def chsh(c_ab: float, c_ab2: float, c_a2b: float, c_a2b2: float) -> float:
    """The CHSH functional |C(a,b) - C(a,b2)| + |C(a2,b) + C(a2,b2)|."""
    return abs(c_ab - c_ab2) + abs(c_a2b + c_a2b2)

