"""Constructive uniqueness checks for diagonal rotation-invariant candidates.

Three independent probes of whether a candidate reproduces the singlet
quadrant statistics, and of what that forces:

* :func:`verify_reproduction` scans the quadrature quadrant masses against
  the closed forms over a setting grid.
* :func:`check_necessary_conditions` evaluates the pointwise constraints the
  closed forms impose on the profiles (zeros of the weighted side, constancy
  of the others). These are necessary, never sufficient.
* :func:`reconstruct_profile` recovers the apparatus profile from the
  matched-cell mass alone by central differencing in the analyzer setting;
  any candidate that reproduces the statistics must come out as cos(x)/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circle import HALF_PI, TWO_PI, on_side
from .models import (
    DEFAULT_PANELS,
    CandidateModel,
    Quadrant,
    quadrant_prob_analytic,
    quadrant_prob_quadrature,
    quadrant_table_quadrature,
    unit_mass_table,
)

#: Differencing steps above this cannot resolve the kink neighborhoods.
MAX_DIFF_STEP = 1e-2

#: Sampled profiles below this resolution are too coarse to probe smoothness.
MIN_PROFILE_SAMPLES = 128

NECESSITY_NOTE = (
    "necessary conditions are evaluated independently of reproduction; "
    "passing them does not imply the quadrant statistics are reproduced"
)


@dataclass(frozen=True)
class ConditionResult:
    name: str
    holds: bool
    residual: float

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, "residual": self.residual}


@dataclass(frozen=True)
class ReconstructionResult:
    """Profile recovered from -d/db of the matched-cell mass at b - a = x + π/2."""

    x: np.ndarray
    profile: np.ndarray
    sup_error: float  # sup distance to cos(x)/4 on the interior
    h: float
    base_setting: float

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "base_setting": self.base_setting,
            "sup_error_interior": self.sup_error,
            "x": list(map(float, self.x)),
            "profile": list(map(float, self.profile)),
        }


@dataclass(frozen=True)
class UniquenessReport:
    reproduces: bool
    max_quadrant_error: float
    worst_setting: tuple[float, float, str]
    mass: float
    necessary_conditions: tuple[ConditionResult, ...]
    reconstruction: ReconstructionResult | None
    note: str

    def to_dict(self) -> dict:
        return {
            "reproduces": self.reproduces,
            "max_quadrant_error": self.max_quadrant_error,
            "worst_setting": {
                "a": self.worst_setting[0],
                "b": self.worst_setting[1],
                "quadrant": self.worst_setting[2],
            },
            "mass": self.mass,
            "necessary_conditions": [c.to_dict() for c in self.necessary_conditions],
            "reconstruction": None if self.reconstruction is None else self.reconstruction.to_dict(),
            "note": self.note,
        }

    def format_table(self) -> str:
        lines = [
            f"reproduces quadrant statistics : {'yes' if self.reproduces else 'NO'}",
            f"max quadrant error             : {self.max_quadrant_error:.6e}",
            f"worst setting                  : a={self.worst_setting[0]:.6f} "
            f"b={self.worst_setting[1]:.6f} cell={self.worst_setting[2]}",
            f"total mass (diagnostic)        : {self.mass:.12f}",
            "necessary conditions:",
        ]
        for cond in self.necessary_conditions:
            status = "holds" if cond.holds else "FAILS"
            lines.append(f"  {cond.name:<28s} {status:>6s}  residual {cond.residual:.3e}")
        if self.reconstruction is not None:
            lines.append(
                f"profile reconstruction         : sup |p - cos/4| = "
                f"{self.reconstruction.sup_error:.3e} (h={self.reconstruction.h:g})"
            )
        lines.append(f"note: {self.note}")
        return "\n".join(lines)


def _profile_values(profile, xs: np.ndarray) -> np.ndarray:
    vals = np.asarray(profile(xs), dtype=float)
    peak = float(vals.max())
    return vals / peak if peak > 0.0 else vals


def check_necessary_conditions(
    m: CandidateModel,
    tol: float = 1e-9,
    weight_side: int = 1,
    grid: int = 512,
) -> tuple[ConditionResult, ...]:
    """Pointwise constraints forced on any candidate reproducing the singlet
    statistics, evaluated on peak-normalized profiles so residuals are
    scale-free.

    With the weight on side 1 they read: p1(π/2)·p2(-π/2) = 0, rho constant,
    p2 constant, p1(-π/2) = 0; the roles of p1 and p2 swap for weight side 2.
    """
    # (name, profile, its forced zero) of each side, as (weighted side, flat side).
    (w_name, weighted, zero_name, zero), (f_name, flat, _, _) = on_side(
        weight_side, ("p1", m.p1, "-pi/2", -HALF_PI), ("p2", m.p2, "pi/2", HALF_PI)
    )
    xs = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    rho = _profile_values(m.rho, xs)
    flat_values = _profile_values(flat, xs)

    def at(vals_fn, x: float) -> float:
        vals = np.asarray(vals_fn(np.array([x])), dtype=float)
        peak = float(np.asarray(vals_fn(xs), dtype=float).max())
        return float(vals[0] / peak) if peak > 0.0 else float(vals[0])

    def spread(vals: np.ndarray) -> float:
        return float(vals.max() - vals.min())

    product_zero = abs(at(m.p1, HALF_PI) * at(m.p2, -HALF_PI))
    second_zero = abs(at(weighted, zero))
    return (
        ConditionResult("p1(pi/2)*p2(-pi/2) = 0", product_zero <= tol, product_zero),
        ConditionResult("rho constant", spread(rho) <= tol, spread(rho)),
        ConditionResult(f"{f_name} constant", spread(flat_values) <= tol, spread(flat_values)),
        ConditionResult(f"{w_name}({zero_name}) = 0", second_zero <= tol, second_zero),
    )


def quarter_cos(x) -> np.ndarray:
    """The forced profile cos(x)/4 on [-π/2, π/2]."""
    return 0.25 * np.cos(np.asarray(x, dtype=float))


def model_quadrant_fn(m: CandidateModel, panels: int = DEFAULT_PANELS) -> Callable[[float, float], float]:
    """Matched-cell mass (a, b) -> R(I×I) for a candidate, by quadrature."""

    def fn(a: float, b: float) -> float:
        return quadrant_prob_quadrature(m, a, b, Quadrant.II, panels)

    return fn


def reconstruct_profile(
    source,
    h: float = 1e-3,
    samples: int = 201,
    base_setting: float = 0.0,
    panels: int = DEFAULT_PANELS,
) -> ReconstructionResult:
    """Recover the apparatus profile from the matched-cell mass alone.

    At separations b - a = x + π/2 with x in [-π/2, π/2] the derivative
    -d/db R(I×I) equals the profile at x, so central differencing the cell
    mass in b reconstructs it without looking inside the model. `source` is a
    CandidateModel or a callable (a, b) -> mass of I×I. The sup error against
    cos(x)/4 is taken on the interior, excluding the h-neighborhoods of the
    separations 0 and π where the forced profile has kinks.
    """
    if not (0.0 < h <= MAX_DIFF_STEP):
        raise ValueError(
            f"differencing step must lie in (0, {MAX_DIFF_STEP:g}]: larger steps "
            f"cannot resolve the kink neighborhoods (got {h!r})"
        )
    if samples < 3:
        raise ValueError("need at least three sample points")
    if isinstance(source, CandidateModel):
        too_coarse = [n for n in source.sampled_sizes() if n < MIN_PROFILE_SAMPLES]
        if too_coarse:
            raise ValueError(
                f"sampled profiles with {too_coarse} points are below the "
                f"{MIN_PROFILE_SAMPLES}-point resolution needed to probe smoothness"
            )
        fn = model_quadrant_fn(source, panels)
    elif callable(source):
        fn = source
    else:
        raise TypeError("source must be a CandidateModel or a callable (a, b) -> mass")

    a0 = base_setting
    x = np.linspace(-HALF_PI, HALF_PI, samples)
    profile = np.empty(samples)
    for i, xi in enumerate(x):
        b = a0 + xi + HALF_PI
        profile[i] = -(fn(a0, b + h) - fn(a0, b - h)) / (2.0 * h)
    interior = (x > -HALF_PI + h) & (x < HALF_PI - h)
    errors = np.abs(profile - quarter_cos(x))
    sup_error = float(errors[interior].max()) if interior.any() else float("inf")
    return ReconstructionResult(x=x, profile=profile, sup_error=sup_error, h=h, base_setting=a0)


def verify_reproduction(
    m: CandidateModel,
    grid: int = 32,
    tol: float = 1e-6,
    panels: int = DEFAULT_PANELS,
    weight_side: int = 1,
    h: float = 1e-3,
    reconstruct: bool = True,
    condition_tol: float = 1e-9,
) -> UniquenessReport:
    """Scan quadrature quadrant masses against the closed forms on a
    grid × grid lattice of settings and assemble the full report."""
    if grid < 8:
        raise ValueError(f"setting grid needs at least 8 points per axis, got {grid!r}")
    mass = float(sum(unit_mass_table(m, 0.0, 0.0, panels).values()))

    settings = TWO_PI * np.arange(grid) / grid
    max_err = -1.0
    worst = (0.0, 0.0, Quadrant.II.value)
    for a in settings:
        for b in settings:
            table = quadrant_table_quadrature(m, float(a), float(b), panels)
            for q, value in table.items():
                err = abs(value - quadrant_prob_analytic(float(a), float(b), q))
                if err > max_err:
                    max_err = err
                    worst = (float(a), float(b), q.value)

    conditions = check_necessary_conditions(m, tol=condition_tol, weight_side=weight_side)
    recon = reconstruct_profile(m, h=h, panels=panels) if reconstruct else None
    return UniquenessReport(
        reproduces=bool(max_err <= tol),
        max_quadrant_error=float(max_err),
        worst_setting=worst,
        mass=mass,
        necessary_conditions=conditions,
        reconstruction=recon,
        note=NECESSITY_NOTE,
    )
