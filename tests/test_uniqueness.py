import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lcsim import uniqueness
from lcsim.circle import TWO_PI
from lcsim.models import (
    CandidateModel,
    NormalizationError,
    Profile,
    Quadrant,
    load_model,
    quadrant_prob_quadrature,
    quadrant_table_quadrature,
    quadrature_error_bound,
)
from lcsim.uniqueness import (
    NECESSITY_NOTE,
    check_necessary_conditions,
    quarter_cos,
    reconstruct_profile,
    verify_reproduction,
)

ABS_COS = CandidateModel.one_sided("abs-cos")
BARE_ABS_COS = CandidateModel(  # |cos| with scale 1: mass 4
    rho=Profile("uniform"),
    p1=Profile("abs-cos"),
    p2=Profile("uniform"),
)


# ---------------------------------------------------------------------------
# Closed-form oracles for the two failing candidates, from the antiderivatives
# of cos²/π and of the constant 1/(2π) over the matched-cell interval
# [b - π/2, a + π/2]. Both are even and 2π-periodic in d = b - a.


def cos2_ii_error(d: float) -> float:
    d = min(d % TWO_PI, TWO_PI - d % TWO_PI)
    return 0.25 - d / (2 * math.pi) + math.sin(2 * d) / (4 * math.pi) - math.cos(d) / 4


def uniform_ii_error(d: float) -> float:
    d = min(d % TWO_PI, TWO_PI - d % TWO_PI)
    return (math.pi - d) / (2 * math.pi) - 0.25 * (1 + math.cos(d))


def grid_max(error_fn, k: int = 32) -> float:
    return max(abs(error_fn(TWO_PI * (j - i) / k)) for i in range(k) for j in range(k))


class TestVerifyReproduction:
    def test_abs_cos_reproduces(self):
        report = verify_reproduction(ABS_COS, grid=16, reconstruct=False)
        assert report.reproduces
        assert report.max_quadrant_error < 1e-9
        assert report.mass == pytest.approx(1.0, abs=1e-12)
        assert all(c.holds for c in report.necessary_conditions)

    def test_mirrored_form_also_reproduces(self):
        report = verify_reproduction(
            CandidateModel.one_sided("abs-cos", weight_side=2), grid=16, weight_side=2, reconstruct=False
        )
        assert report.reproduces
        assert all(c.holds for c in report.necessary_conditions)

    def test_cos_squared_fails_with_frozen_error(self):
        # Oracle values frozen before the implementation was trusted.
        assert cos2_ii_error(math.pi / 4) == pytest.approx(0.0278007762, abs=1e-9)
        report = verify_reproduction(CandidateModel.one_sided("cos-squared"), grid=32, reconstruct=False)
        assert not report.reproduces
        at_quarter = quadrant_prob_quadrature(
            CandidateModel.one_sided("cos-squared"), 0.0, math.pi / 4, Quadrant.II
        ) - 0.5 * math.cos(math.pi / 8) ** 2
        assert at_quarter == pytest.approx(0.0278007762, abs=1e-9)
        assert report.max_quadrant_error == pytest.approx(grid_max(cos2_ii_error), abs=1e-9)
        assert 0.0278 <= report.max_quadrant_error <= 0.029

    def test_uniform_fails_with_frozen_error(self):
        assert uniform_ii_error(math.pi / 4) == pytest.approx(-0.0517766953, abs=1e-9)
        report = verify_reproduction(CandidateModel.one_sided("uniform"), grid=32, reconstruct=False)
        assert not report.reproduces
        assert report.max_quadrant_error == pytest.approx(0.0517766953, abs=1e-9)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            verify_reproduction(ABS_COS, grid=4)

    def test_unnormalized_candidate_rejected(self):
        with pytest.raises(NormalizationError):
            verify_reproduction(BARE_ABS_COS, grid=8)

    @pytest.mark.parametrize("model", [ABS_COS, BARE_ABS_COS], ids=["unit-mass", "unnormalized"])
    def test_bad_weight_side_rejected_before_any_quadrature(self, monkeypatch, model):
        calls = []
        monkeypatch.setattr(CandidateModel, "density", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="weight side must be an integer of at least 1 and at most 2, got 3"):
            verify_reproduction(model, grid=8, weight_side=3)
        with pytest.raises(ValueError, match="setting grid"):
            verify_reproduction(model, grid=4)
        assert calls == []

    def test_arguments_are_checked_before_the_lattice(self, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("the lattice was scanned")

        monkeypatch.setattr(uniqueness, "quadrant_table_quadrature", scan)
        coarse = CandidateModel(
            rho=Profile("uniform"),
            p1=Profile.from_samples(np.abs(np.cos(np.linspace(0, TWO_PI, 64, endpoint=False)))),
            p2=Profile("uniform"),
        ).normalized()
        with pytest.raises(ValueError, match="kink"):
            verify_reproduction(ABS_COS, grid=256, h=0.5)
        with pytest.raises(ValueError, match="128"):
            verify_reproduction(coarse, grid=8)
        with pytest.raises(ValueError, match="tolerance nan is NaN"):
            verify_reproduction(ABS_COS, grid=8, tol=math.nan, reconstruct=False)
        # Without reconstruction the step and the resolution are not read.
        with pytest.raises(AssertionError, match="scanned"):
            verify_reproduction(coarse, grid=8, h=0.5, reconstruct=False)

    @pytest.mark.parametrize("side", [1, 2])
    def test_quadrature_error_bounds_the_distance_to_the_closed_forms(self, side):
        m = CandidateModel.one_sided("abs-cos", side)
        report = verify_reproduction(m, grid=32, weight_side=side, reconstruct=False)
        assert 0.0 < report.quadrature_error < 1e-13
        assert report.quadrature_error >= report.max_quadrant_error - 1e-15
        a, b = np.meshgrid(*2 * (TWO_PI * np.arange(32) / 32,), indexing="ij")
        assert report.quadrature_error == quadrature_error_bound(m, quadrant_table_quadrature(m, a, b)).max()
        assert report.to_dict()["quadrature_error"] == report.quadrature_error
        assert "quadrature error" in report.format_table()

    def test_tolerance_below_the_quadrature_error_refused(self):
        # The bound on the cos² tables is rounding, about 1.5e-13; its
        # truncation part is below 1e-28.
        error = verify_reproduction(CandidateModel.one_sided("cos-squared"), grid=8, reconstruct=False).quadrature_error
        assert 1e-14 < error < 1e-12
        with pytest.raises(ValueError, match="below the quadrature error"):
            verify_reproduction(CandidateModel.one_sided("cos-squared"), grid=8, tol=error / 2, reconstruct=False)
        verify_reproduction(CandidateModel.one_sided("cos-squared"), grid=8, tol=error, reconstruct=False)


FIXTURE_256 = Path(__file__).with_name("fixtures") / "abs-cos-256.json"


def scan(model, grid, weight_side=1):
    """The lattice part of the report: its two errors and worst setting."""
    r = verify_reproduction(model, grid=grid, weight_side=weight_side, reconstruct=False)
    return struct.pack("<2d", r.max_quadrant_error, r.quadrature_error), r.worst_setting


class TestLatticeChunks:
    @pytest.mark.parametrize("grid", [32, 39])
    @pytest.mark.parametrize(
        "model, side",
        [(ABS_COS, 1), (CandidateModel.one_sided("cos-squared", 2), 2), (load_model(FIXTURE_256), 1)],
        ids=["abs-cos", "cos-squared-side-2", "samples-256"],
    )
    def test_report_does_not_depend_on_the_chunk_size(self, monkeypatch, model, side, grid):
        whole = scan(model, grid, side)
        for rows in (1, 5):
            monkeypatch.setattr(uniqueness, "LATTICE_CHUNK", rows * grid)
            assert scan(model, grid, side) == whole

    @pytest.mark.parametrize("nan", [False, True], ids=["ties", "nan"])
    def test_first_maximum_in_row_major_order(self, monkeypatch, nan):
        # Quadrature tables of zeros against closed forms of zeros, but for
        # error 1 at two settings of column 2 (rows 3 and 5) and, with `nan`,
        # a NaN at row 6: the first in row-major order wins, NaN first, as
        # np.argmax has it over the whole lattice.
        def planted(a, b):
            out = np.zeros((*np.shape(a), 4))
            out[np.isin(a, TWO_PI * np.array([3, 5]) / 8) & (b == TWO_PI * 2 / 8)] = 1.0
            if nan:
                out[(a == TWO_PI * 6 / 8) & (b == TWO_PI * 7 / 8), 3] = np.nan
            return out

        monkeypatch.setattr(uniqueness, "quadrant_table_quadrature", lambda m, a, b: np.zeros((*a.shape, 4)))
        monkeypatch.setattr(uniqueness, "quadrant_table_analytic", planted)
        for rows in (8, 3, 1):
            monkeypatch.setattr(uniqueness, "LATTICE_CHUNK", rows * 8)
            r = verify_reproduction(ABS_COS, grid=8, reconstruct=False)
            assert not r.reproduces
            if nan:
                assert math.isnan(r.max_quadrant_error)
                assert r.worst_setting == (TWO_PI * 6 / 8, TWO_PI * 7 / 8, "JxJ")
            else:
                assert r.max_quadrant_error == 1.0
                assert r.worst_setting == (TWO_PI * 3 / 8, TWO_PI * 2 / 8, "IxI")

    def test_benchmark_grids_are_one_chunk(self, monkeypatch):
        calls = []
        table = uniqueness.quadrant_table_quadrature
        monkeypatch.setattr(uniqueness, "quadrant_table_quadrature", lambda *a, **k: calls.append(1) or table(*a, **k))
        for grid in (8, 32):
            verify_reproduction(ABS_COS, grid=grid, reconstruct=False)
        assert len(calls) == 2  # one table call a chunk: no second rule

    def test_grid_256_scan_holds_one_chunk(self):
        # The whole lattice and its differences took 8.5 MB traced here, and
        # 159 MB of child RSS at grid 1024.
        tracemalloc.start()
        try:
            report = verify_reproduction(ABS_COS, grid=256, reconstruct=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.reproduces
        assert peak < 3e6


class TestNecessaryConditions:
    def test_abs_cos_all_hold(self):
        results = check_necessary_conditions(ABS_COS)
        assert [c.name for c in results] == [
            "p1(pi/2)*p2(-pi/2) = 0",
            "rho constant",
            "p2 constant",
            "p1(-pi/2) = 0",
        ]
        assert all(c.holds for c in results)
        assert all(c.residual < 1e-9 for c in results)

    def test_cos_squared_passes_conditions_despite_failing(self):
        # cos² has the right zeros and constants; only the reconstruction and
        # the quadrant scan expose it. Necessity is not sufficiency.
        results = check_necessary_conditions(CandidateModel.one_sided("cos-squared"))
        assert all(c.holds for c in results)

    def test_uniform_profile_has_no_zero(self):
        results = check_necessary_conditions(CandidateModel.one_sided("uniform"))
        by_name = {c.name: c for c in results}
        assert not by_name["p1(pi/2)*p2(-pi/2) = 0"].holds
        assert by_name["p1(pi/2)*p2(-pi/2) = 0"].residual == pytest.approx(1.0)
        assert not by_name["p1(-pi/2) = 0"].holds

    def test_mirrored_names(self):
        results = check_necessary_conditions(CandidateModel.one_sided("abs-cos", weight_side=2), weight_side=2)
        names = [c.name for c in results]
        assert "p1 constant" in names
        assert "p2(pi/2) = 0" in names
        assert all(c.holds for c in results)


class TestReconstruction:
    def test_recovers_quarter_cos(self):
        result = reconstruct_profile(ABS_COS, h=1e-3)
        mid = np.argmin(np.abs(result.x))
        assert result.profile[mid] == pytest.approx(0.25, abs=1e-5)
        assert result.sup_error < 1e-5

    def test_vanishes_at_endpoints(self):
        result = reconstruct_profile(ABS_COS, h=1e-3)
        assert abs(result.profile[0]) < 1e-4
        assert abs(result.profile[-1]) < 1e-4

    def test_halving_h_quarters_error(self):
        # Oracle: the exact derivative is -sin(b-a)/4, so the central
        # difference error is h²·sin/24 and halving h divides it by 4.
        coarse = reconstruct_profile(ABS_COS, h=2e-3)
        fine = reconstruct_profile(ABS_COS, h=1e-3)
        ratio = coarse.sup_error / fine.sup_error
        assert 3.2 <= ratio <= 4.8

    def test_step_bounds(self):
        with pytest.raises(ValueError, match="kink"):
            reconstruct_profile(ABS_COS, h=0.05)
        with pytest.raises(ValueError):
            reconstruct_profile(ABS_COS, h=0.0)

    def test_coarse_sampled_profile_rejected(self):
        coarse = CandidateModel(
            rho=Profile("uniform"),
            p1=Profile.from_samples(np.abs(np.cos(np.linspace(0, TWO_PI, 64, endpoint=False)))),
            p2=Profile("uniform"),
        ).normalized()
        with pytest.raises(ValueError, match="128"):
            reconstruct_profile(coarse)

    def test_fine_sampled_profile_accepted(self):
        fine = CandidateModel(
            rho=Profile("uniform"),
            p1=Profile.from_samples(np.abs(np.cos(np.linspace(0, TWO_PI, 512, endpoint=False)))),
            p2=Profile("uniform"),
        ).normalized()
        result = reconstruct_profile(fine, h=1e-3)
        assert result.sup_error < 1e-3  # limited by the linear interpolation

    def test_derivative_matches_quarter_sine(self):
        # -d/db of the matched-cell mass is sin(b-a)/4; check pointwise.
        h = 1e-3
        d = np.array([0.4, 1.0, 2.2, 2.9])
        up, down = quadrant_prob_quadrature(ABS_COS, 0.0, np.stack((d + h, d - h)), Quadrant.II)
        np.testing.assert_allclose(-(up - down) / (2 * h), 0.25 * np.sin(d), atol=1e-6)


class TestReport:
    def test_json_roundtrip_and_note(self):
        report = verify_reproduction(CandidateModel.one_sided("uniform"), grid=8, reconstruct=False)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["reproduces"] is False
        assert doc["note"] == NECESSITY_NOTE
        assert {c["name"] for c in doc["necessary_conditions"]} == {
            "p1(pi/2)*p2(-pi/2) = 0",
            "rho constant",
            "p2 constant",
            "p1(-pi/2) = 0",
        }

    def test_table_mentions_necessity(self):
        report = verify_reproduction(CandidateModel.one_sided("cos-squared"), grid=8, reconstruct=False)
        table = report.format_table()
        assert "NO" in table
        assert "necessary" in table

    def test_quarter_cos_helper(self):
        xs = np.linspace(-math.pi / 2, math.pi / 2, 5)
        assert np.allclose(quarter_cos(xs), 0.25 * np.cos(xs))
