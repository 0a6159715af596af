"""Constructive uniqueness checks for diagonal rotation-invariant candidates.

Three independent probes of whether a candidate reproduces the singlet
quadrant statistics, and of what that forces:

* :func:`verify_reproduction` subtracts the closed-form quadrant tables from
  the quadrature ones over a setting grid, one table call per backend and
  chunk of rows, and reports the largest a-priori bound on the quadrature
  tables' error as its quadrature error.
* :func:`check_necessary_conditions` evaluates the pointwise constraints the
  closed forms impose on the profiles (zeros of the weighted side, constancy
  of the others). These are necessary, never sufficient.
* :func:`reconstruct_profile` recovers the apparatus profile from the
  matched-cell mass alone by central differencing in the analyzer setting;
  any candidate that reproduces the statistics must come out as cos(x)/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import HALF_PI, TWO_PI, integer, on_side
from .models import (
    CandidateModel,
    Quadrant,
    quadrant_prob_quadrature,
    quadrant_table_analytic,
    quadrant_table_quadrature,
    quadrature_error_bound,
    unit_mass_table,
)

#: Differencing steps above this cannot resolve the kink neighborhoods.
MAX_DIFF_STEP = 1e-2

#: Sampled profiles below this resolution are too coarse to probe smoothness.
MIN_PROFILE_SAMPLES = 128

#: Tolerance on the peak-normalized residuals of the necessary conditions.
CONDITION_TOL = 1e-9

#: Angles on which the necessary conditions find each profile's peak.
CONDITION_GRID = 512

#: Most settings of one chunk of whole rows of the reproduction scan (at
#: least one row each). Its tables then hold about 133 bytes per setting,
#: about 0.5 MB, at any grid; grids up to 64 are one chunk.
LATTICE_CHUNK = 4096

#: Largest setting grid of the reproduction scan. LATTICE_CHUNK bounds its
#: memory, so this grid bounds its time, which grows as grid²: `lcsim
#: uniqueness --builtin abs-cos --no-reconstruction` took 5.0 s at grid 1024
#: and 22 s at grid 2048 on one Xeon core, both within 4 MB of a bare import
#: (child peak RSS).
MAX_GRID = 2048

#: Setting a of the profile reconstruction, and its sample count over
#: x in [-π/2, π/2].
RECONSTRUCTION_BASE = 0.0
RECONSTRUCTION_SAMPLES = 201

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

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "base_setting": RECONSTRUCTION_BASE,
            "sup_error_interior": self.sup_error,
            "x": list(map(float, self.x)),
            "profile": list(map(float, self.profile)),
        }


@dataclass(frozen=True)
class UniquenessReport:
    reproduces: bool
    max_quadrant_error: float
    quadrature_error: float
    worst_setting: tuple[float, float, str]
    mass: float
    necessary_conditions: tuple[ConditionResult, ...]
    reconstruction: ReconstructionResult | None
    note: str

    def to_dict(self) -> dict:
        return {
            "reproduces": self.reproduces,
            "max_quadrant_error": self.max_quadrant_error,
            "quadrature_error": self.quadrature_error,
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
            f"quadrature error bound         : {self.quadrature_error:.3e}",
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


def _peak_scaled(profile, xs: np.ndarray):
    """The profile on xs over its peak there (unscaled if the peak is 0), and
    a function giving its value at one angle on the same scale."""
    vals = np.asarray(profile(xs), dtype=float)
    peak = float(vals.max())
    peak = peak if peak > 0.0 else 1.0
    return vals / peak, lambda x: float(np.asarray(profile(np.array([x])), dtype=float)[0] / peak)


def check_necessary_conditions(m: CandidateModel, weight_side: int = 1) -> tuple[ConditionResult, ...]:
    """Pointwise constraints forced on any candidate reproducing the singlet
    statistics, evaluated on peak-normalized profiles so residuals are
    scale-free; each holds when its residual is within CONDITION_TOL.

    With the weight on side 1 they read: p1(π/2)·p2(-π/2) = 0, rho constant,
    p2 constant, p1(-π/2) = 0; the roles of p1 and p2 swap for weight side 2.
    """
    xs = np.linspace(0.0, TWO_PI, CONDITION_GRID, endpoint=False)
    rho, _ = _peak_scaled(m.rho, xs)
    (p1, p1_at), (p2, p2_at) = _peak_scaled(m.p1, xs), _peak_scaled(m.p2, xs)
    # (name, values, value at one angle, forced zero) of each side, as (weighted side, flat side).
    (w_name, _, w_at, zero_name, zero), (f_name, flat, *_) = on_side(
        weight_side, ("p1", p1, p1_at, "-pi/2", -HALF_PI), ("p2", p2, p2_at, "pi/2", HALF_PI)
    )

    def spread(vals: np.ndarray) -> float:
        return float(vals.max() - vals.min())

    product_zero = abs(p1_at(HALF_PI) * p2_at(-HALF_PI))
    second_zero = abs(w_at(zero))
    return (
        ConditionResult("p1(pi/2)*p2(-pi/2) = 0", product_zero <= CONDITION_TOL, product_zero),
        ConditionResult("rho constant", spread(rho) <= CONDITION_TOL, spread(rho)),
        ConditionResult(f"{f_name} constant", spread(flat) <= CONDITION_TOL, spread(flat)),
        ConditionResult(f"{w_name}({zero_name}) = 0", second_zero <= CONDITION_TOL, second_zero),
    )


def quarter_cos(x) -> np.ndarray:
    """The forced profile cos(x)/4 on [-π/2, π/2]."""
    return 0.25 * np.cos(np.asarray(x, dtype=float))


def _check_reconstruction(m: CandidateModel, h: float) -> None:
    """ValueError unless the differencing step resolves the kinks and every
    sampled profile is fine enough to probe smoothness."""
    if not (0.0 < h <= MAX_DIFF_STEP):
        raise ValueError(
            f"differencing step must lie in (0, {MAX_DIFF_STEP:g}]: larger steps "
            f"cannot resolve the kink neighborhoods (got {h!r})"
        )
    sizes = [len(p.samples) for p in (m.rho, m.p1, m.p2) if p.kind == "samples"]
    too_coarse = [n for n in sizes if n < MIN_PROFILE_SAMPLES]
    if too_coarse:
        raise ValueError(
            f"sampled profiles with {too_coarse} points are below the "
            f"{MIN_PROFILE_SAMPLES}-point resolution needed to probe smoothness"
        )


def reconstruct_profile(m: CandidateModel, h: float = 1e-3) -> ReconstructionResult:
    """Recover the apparatus profile from the matched-cell mass alone.

    At separations b - a = x + π/2 with x in [-π/2, π/2] the derivative
    -d/db R(I×I) equals the profile at x, so central differencing the cell
    mass in b reconstructs it without looking inside the model; one table
    call covers all 2 × RECONSTRUCTION_SAMPLES settings. The sup error
    against cos(x)/4 is taken on the interior, excluding the h-neighborhoods
    of the separations 0 and π where the forced profile has kinks.
    """
    _check_reconstruction(m, h)
    x = np.linspace(-HALF_PI, HALF_PI, RECONSTRUCTION_SAMPLES)
    b = RECONSTRUCTION_BASE + x + HALF_PI
    up, down = quadrant_prob_quadrature(m, RECONSTRUCTION_BASE, np.stack((b + h, b - h)), Quadrant.II)
    profile = -(up - down) / (2.0 * h)
    interior = (x > -HALF_PI + h) & (x < HALF_PI - h)
    errors = np.abs(profile - quarter_cos(x))
    sup_error = float(errors[interior].max()) if interior.any() else float("inf")
    return ReconstructionResult(x=x, profile=profile, sup_error=sup_error, h=h)


def verify_reproduction(
    m: CandidateModel,
    grid: int = 32,
    tol: float = 1e-6,
    weight_side: int = 1,
    h: float = 1e-3,
    reconstruct: bool = True,
) -> UniquenessReport:
    """Scan quadrature quadrant masses against the closed forms on a
    grid × grid lattice of settings and assemble the full report.

    The lattice goes in chunks of whole rows, one table call per backend and
    chunk. Every setting's table is its own, and each maximum is exact and
    kept at its first place in row-major order (NaN first), so the report
    does not depend on the chunk size. Its quadrature error, the largest of
    the tables' a-priori error bounds, bounds the tolerance: a `tol` below
    it, or NaN, is refused, since the scan cannot resolve it. Every argument
    is checked before the scan, the tolerance against its error after it.
    """
    on_side(weight_side, None, None)  # a bad side fails before any quadrature
    grid = integer(grid, "setting grid")  # the golden corpus pins the range messages below
    if grid < 8:
        raise ValueError(f"setting grid needs at least 8 points per axis, got {grid!r}")
    if grid > MAX_GRID:
        raise ValueError(f"setting grid takes at most {MAX_GRID} points per axis, got {grid!r}")
    if np.isnan(tol):
        raise ValueError(f"tolerance {tol!r} is NaN or below the quadrature error: no scan resolves it")
    if reconstruct:
        _check_reconstruction(m, h)
    mass = float(unit_mass_table(m, 0.0, 0.0).sum())

    settings = TWO_PI * np.arange(grid) / grid
    rows = max(1, LATTICE_CHUNK // grid)
    bounds, worst = [], []  # per chunk: its quadrature error, and its largest error with its (i, j, q)
    for start in range(0, grid, rows):
        a, b = np.meshgrid(settings[start:start + rows], settings, indexing="ij")
        tables = quadrant_table_quadrature(m, a, b)
        bounds.append(quadrature_error_bound(m, tables).max())
        errors = np.abs(tables - quadrant_table_analytic(a, b))
        i, j, q = np.unravel_index(np.argmax(errors), errors.shape)
        worst.append((errors[i, j, q], (start + i, j, q)))
    quadrature_error = float(np.max(bounds))
    if not tol >= quadrature_error:
        raise ValueError(f"tolerance {tol!r} is NaN or below the quadrature error {quadrature_error:.3e}")
    max_err, (i, j, q) = worst[int(np.argmax([err for err, _ in worst]))]
    max_err = float(max_err)

    conditions = check_necessary_conditions(m, weight_side=weight_side)
    recon = reconstruct_profile(m, h=h) if reconstruct else None
    return UniquenessReport(
        reproduces=bool(max_err <= tol),
        max_quadrant_error=max_err,
        quadrature_error=quadrature_error,
        worst_setting=(float(settings[i]), float(settings[j]), list(Quadrant)[q].value),
        mass=mass,
        necessary_conditions=conditions,
        reconstruction=recon,
        note=NECESSITY_NOTE,
    )
