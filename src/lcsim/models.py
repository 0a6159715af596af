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

Quadrant masses (probabilities of the four joint-outcome cells) come either
from the singlet closed forms, ½cos²((b-a)/2) on matched cells and
½sin²((b-a)/2) on mixed ones, or, for an arbitrary candidate, from
:func:`quadrant_table_quadrature`. That cuts each setting's circle at the four
detection-arc endpoints and the shifted profile kinks, integrates every
smooth piece with one Gauss-Legendre rule and sums it into the cell it lies
in; one call covers a whole array of settings. Correlations and
the CHSH statistic are signed sums of quadrant masses, so the analytic and
quadrature backends share one code path.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from .circle import BOUNDARY_EPS, HALF_PI, TWO_PI, normalize, on_side
from .circle import arc_intersect  # noqa: F401  (module attribute patched by perfbench/layers.py)

#: Tolerance on |total mass - 1| before correlations are considered defined.
MASS_TOL = 1e-6

#: Density nodes that :func:`quadrant_table_quadrature` evaluates at once:
#: 96 KiB a float array, below glibc's initial 128 KiB mmap threshold, so the
#: cost of a table does not depend on what was allocated before.
QUADRATURE_BLOCK = 12288

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
    def spin_product(self) -> int:
        """Sign of f1*f2 on the cell: mixed cells give +1, matched give -1."""
        return 1 if self in (Quadrant.IJ, Quadrant.JI) else -1

    @property
    def index(self) -> int:
        """Position of the cell on the last axis of a quadrant table."""
        return list(Quadrant).index(self)


_BUILTINS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "abs-cos": lambda x: np.abs(np.cos(x)),
    "cos-squared": lambda x: np.cos(x) ** 2,
    "uniform": lambda x: np.ones_like(x),
}

#: The scale that gives each builtin candidate unit mass.
BUILTIN_SCALES = {"abs-cos": 0.25, "cos-squared": 1.0 / math.pi, "uniform": 1.0 / TWO_PI}

# Angles in [0, 2π) where each builtin fails to be smooth.
_BUILTIN_KINKS: dict[str, tuple[float, ...]] = {
    "abs-cos": (HALF_PI, 3.0 * HALF_PI),
    "cos-squared": (),
    "uniform": (),
}


@dataclass(frozen=True)
class Profile:
    """Nonnegative 2π-periodic profile.

    Either one of the named builtins or N uniformly spaced samples (values at
    the angles 2πk/N) evaluated with periodic linear interpolation.
    """

    kind: str
    samples: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str):
            raise ValueError(f"profile kind must be a string, got {self.kind!r}")
        if self.kind == "samples":
            try:
                values = np.asarray(self.samples, dtype=float)
            except TypeError:
                raise ValueError("profile samples must be a list of numbers") from None
            if values.ndim != 1 or values.size < 2:
                raise ValueError("sampled profile needs a list of at least two samples")
            if not np.all(np.isfinite(values)) or np.any(values < 0.0):
                raise ValueError("profile samples must be finite and nonnegative")
            object.__setattr__(self, "samples", tuple(float(v) for v in values))
        elif self.kind in _BUILTINS:
            if self.samples is not None:
                raise ValueError("builtin profiles carry no samples")
        else:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    @classmethod
    def builtin(cls, name: str) -> "Profile":
        return cls(kind=name)

    @classmethod
    def from_samples(cls, values) -> "Profile":
        return cls(kind="samples", samples=values)

    @property
    def n_samples(self) -> int:
        return 0 if self.samples is None else len(self.samples)

    def __call__(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        if self.kind != "samples":
            return _BUILTINS[self.kind](xs)
        vals = np.asarray(self.samples, dtype=float)
        grid = np.linspace(0.0, TWO_PI, vals.size + 1)
        wrapped = np.append(vals, vals[0])
        return np.interp(normalize(xs), grid, wrapped)

    def kink_angles(self) -> np.ndarray:
        """Angles in [0, 2π) where the profile is not smooth; quadrature cuts here."""
        if self.kind == "samples":
            n = len(self.samples)
            return TWO_PI * np.arange(n) / n
        return np.array(_BUILTIN_KINKS[self.kind], dtype=float)

    def to_dict(self) -> dict:
        if self.kind == "samples":
            return {"samples": list(self.samples)}
        return {"builtin": self.kind}

    @classmethod
    def from_dict(cls, doc: dict) -> "Profile":
        if not isinstance(doc, dict):
            raise ValueError(f"profile document must be an object, got {doc!r}")
        if "builtin" in doc:
            return cls.builtin(doc["builtin"])
        if "samples" in doc:
            return cls.from_samples(doc["samples"])
        raise ValueError("profile document needs a 'builtin' or 'samples' field")


@dataclass(frozen=True)
class CandidateModel:
    """Diagonal pair-measure candidate: source profile, two apparatus profiles
    and a scalar normalization."""

    rho: Profile
    p1: Profile
    p2: Profile
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")

    def density(self, s, a: float, b: float) -> np.ndarray:
        """Line density at diagonal configuration(s) s for settings (a, b);
        the settings may be arrays that broadcast against s."""
        arr = np.asarray(s, dtype=float)
        return self.scale * self.rho(arr) * self.p1(arr - a) * self.p2(arr - b)

    @classmethod
    def one_sided(cls, name: str, weight_side: int = 1) -> "CandidateModel":
        """Unit-mass builtin candidate `name`: its profile on the weighted side, all else flat."""
        flat = Profile.builtin("uniform")
        p1, p2 = on_side(weight_side, Profile.builtin(name), flat)
        return cls(rho=flat, p1=p1, p2=p2, scale=BUILTIN_SCALES[name])

    @classmethod
    def abs_cos(cls, weight_side: int = 1) -> "CandidateModel":
        """The unit-mass |cos|/4 model, with the weight on either side."""
        return cls.one_sided("abs-cos", weight_side)

    @classmethod
    def cos_squared(cls, weight_side: int = 1) -> "CandidateModel":
        """cos² apparatus profile on one side, everything else flat, unit mass."""
        return cls.one_sided("cos-squared", weight_side)

    @classmethod
    def uniform(cls) -> "CandidateModel":
        """Constant density 1/(2π) on the diagonal."""
        return cls.one_sided("uniform")

    def normalized(self) -> "CandidateModel":
        """Rescale so the total mass at equal settings is 1."""
        mass = float(quadrant_table_quadrature(self, 0.0, 0.0).sum())
        if mass <= 0.0:
            raise ValueError("cannot normalize a model with zero mass")
        return replace(self, scale=self.scale / mass)

    def sampled_sizes(self) -> tuple[int, ...]:
        """Sample counts of the sampled profiles (empty if all builtin)."""
        return tuple(p.n_samples for p in (self.rho, self.p1, self.p2) if p.kind == "samples")

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
        scale = doc.get("scale", 1.0)
        if isinstance(scale, bool) or not isinstance(scale, numbers.Real):
            raise ValueError(f"model scale must be a number, got {scale!r}")
        return cls(
            rho=Profile.from_dict(doc["rho"]),
            p1=Profile.from_dict(doc["p1"]),
            p2=Profile.from_dict(doc["p2"]),
            scale=float(scale),
        )


def save_model(path, model: CandidateModel) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2, sort_keys=True) + "\n")


def load_model(path) -> CandidateModel:
    """Read a model file; a file without an explicit scale is normalized."""
    doc = json.loads(Path(path).read_text())
    model = CandidateModel.from_dict(doc)
    if "scale" not in doc:
        model = model.normalized()
    return model


def quadrant_prob_analytic(a: float, b: float, quadrant: Quadrant) -> float:
    """Singlet closed form for one cell: ½cos²((b-a)/2) or ½sin²((b-a)/2)."""
    half = 0.5 * (b - a)
    if quadrant.spin_product < 0:
        return 0.5 * math.cos(half) ** 2
    return 0.5 * math.sin(half) ** 2


def quadrant_prob_quadrature(m: CandidateModel, a, b, quadrant: Quadrant):
    """Mass of one joint-outcome cell: one entry of :func:`quadrant_table_quadrature`."""
    return quadrant_table_quadrature(m, a, b)[..., quadrant.index][()]


def quadrant_table_quadrature(m: CandidateModel, a, b, nodes: int = 16) -> np.ndarray:
    """The four cell masses, in :class:`Quadrant` order, at settings (a, b).

    `a` and `b` broadcast; the result has shape (..., 4). Each setting's
    circle, taken from a (s' = s - a), is cut at 0, 2π, the four arc
    endpoints and every profile kink, so each piece lies in the cell of its
    left end and carries a smooth density that an n-node Gauss-Legendre rule
    integrates. Zero-length pieces carry zero mass, so a cell that no piece
    lies in gets exactly 0. Settings go in blocks of at most QUADRATURE_BLOCK
    density nodes (at least one setting each); every piece sums its own
    nodes, so the tables do not depend on the block size.
    """
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
    step = max(1, QUADRATURE_BLOCK // (nodes * (5 + sum(k.size for k in kinks))))
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


def _signed_sum(table) -> float:
    """Correlation from one table in Quadrant order: matched cells count -1."""
    return float(sum(q.spin_product * float(p) for q, p in zip(Quadrant, table)))


def unit_mass_table(m: CandidateModel, a: float, b: float) -> np.ndarray:
    """The quadrant table at (a, b); NormalizationError unless its cells sum
    to 1 within MASS_TOL."""
    table = quadrant_table_quadrature(m, a, b)
    mass = table.sum()
    if abs(mass - 1.0) > MASS_TOL:
        raise NormalizationError(
            f"model is not normalized: total mass {mass:.9g} at settings ({a!r}, {b!r})"
        )
    return table


def correlation(m: CandidateModel, a: float, b: float) -> float:
    """Pair correlation from the four quadrant masses; needs unit mass."""
    return _signed_sum(unit_mass_table(m, a, b))


def correlation_analytic(a: float, b: float) -> float:
    """Signed quadrant sum of the closed forms; equals -cos(b - a)."""
    return _signed_sum([quadrant_prob_analytic(a, b, q) for q in Quadrant])


def chsh_pairs(settings):
    """The four CHSH setting pairs ((a,b), (a,b2), (a2,b), (a2,b2)) of the
    quadruple (a, a2, b, b2), in the order :func:`chsh` takes them."""
    a, a2, b, b2 = settings
    return ((a, b), (a, b2), (a2, b), (a2, b2))


def chsh(c_ab: float, c_ab2: float, c_a2b: float, c_a2b2: float) -> float:
    """The CHSH functional |C(a,b) - C(a,b2)| + |C(a2,b) + C(a2,b2)|."""
    return abs(c_ab - c_ab2) + abs(c_a2b + c_a2b2)


def empirically_equivalent(
    m1: CandidateModel,
    settings1: tuple[float, float],
    m2: CandidateModel,
    settings2: tuple[float, float],
    tol: float,
) -> bool:
    """True iff the two candidates produce the same four quadrant masses at
    their respective settings, within tol. Both models must be unit mass."""
    t1 = unit_mass_table(m1, *settings1)
    t2 = unit_mass_table(m2, *settings2)
    return bool(np.all(np.abs(t1 - t2) <= tol))


def abs_cos_density(a: float, s):
    """The forced diagonal line density ¼|cos(s - a)|."""
    out = 0.25 * np.abs(np.cos(np.asarray(s, dtype=float) - a))
    return float(out) if out.ndim == 0 else out
