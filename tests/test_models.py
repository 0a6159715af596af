import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim.circle import TWO_PI, arc_I, arc_intersect, arc_J, normalize
from lcsim.models import (
    DEFAULT_PANELS,
    TSIRELSON_SETTINGS,
    CandidateModel,
    NormalizationError,
    Profile,
    Quadrant,
    abs_cos_density,
    chsh,
    chsh_pairs,
    correlation,
    correlation_analytic,
    empirically_equivalent,
    load_model,
    quadrant_prob_analytic,
    quadrant_prob_quadrature,
    quadrant_table_quadrature,
    save_model,
    total_mass,
)

ABS_COS = CandidateModel.abs_cos()
COS_SQUARED = CandidateModel.cos_squared()
UNIFORM = CandidateModel.uniform()
SAMPLED_ABS_COS = CandidateModel(
    rho=Profile.builtin("uniform"),
    p1=Profile.from_samples(np.abs(np.cos(TWO_PI * np.arange(256) / 256))),
    p2=Profile.builtin("uniform"),
).normalized()

small_angles = st.floats(min_value=0.0, max_value=TWO_PI, allow_nan=False)


# Interval-length oracle for the uniform model: the I×I mass is just the
# arc-intersection length over 2π, i.e. (π - dist(a,b))/(2π).
def uniform_ii_oracle(d: float) -> float:
    dist = min(d % TWO_PI, TWO_PI - d % TWO_PI)
    return (math.pi - dist) / TWO_PI


def sawtooth(d: float) -> float:
    dist = min(d % TWO_PI, TWO_PI - d % TWO_PI)
    return -1.0 + 2.0 * dist / math.pi


# Reference for the one-pass table: each cell integrated on its own over the
# arc intersection, split at the shifted profile kinks, with the full panel
# count per cell.
def _reference_integrate(f, lo: float, hi: float, cuts, panels: int) -> float:
    pts = [lo]
    for c in cuts:
        if lo + 1e-13 < c < hi - 1e-13 and c - pts[-1] > 1e-13:
            pts.append(c)
    pts.append(hi)
    acc = 0.0
    for u, v in zip(pts[:-1], pts[1:]):
        k = max(1, math.ceil(panels * (v - u) / (hi - lo)))
        h = (v - u) / k
        centers = u + (np.arange(k) + 0.5) * h
        off = 0.5 * h / math.sqrt(3.0)
        acc += 0.5 * h * float(np.sum(f(np.concatenate((centers - off, centers + off)))))
    return acc


def reference_cell(m, a, b, quadrant, panels=DEFAULT_PANELS) -> float:
    a, b = normalize(a), normalize(b)
    arc1 = arc_I(a) if quadrant in (Quadrant.II, Quadrant.IJ) else arc_J(a)
    arc2 = arc_I(b) if quadrant in (Quadrant.II, Quadrant.JI) else arc_J(b)
    pieces = arc_intersect(arc1, arc2)
    if not pieces:
        return 0.0
    shifted = ((m.rho, 0.0), (m.p1, a), (m.p2, b))
    cuts = sorted({normalize(float(c) + shift) for p, shift in shifted for c in p.kink_angles()})
    total = sum(piece.length for piece in pieces)
    return sum(
        _reference_integrate(
            lambda s: m.density(s, a, b),
            piece.start,
            piece.start + piece.length,
            cuts,
            max(1, math.ceil(panels * piece.length / total)),
        )
        for piece in pieces
    )


class TestProfiles:
    def test_builtin_values(self):
        x = np.array([0.0, math.pi / 3, math.pi / 2])
        assert np.allclose(Profile.builtin("abs-cos")(x), np.abs(np.cos(x)))
        assert np.allclose(Profile.builtin("cos-squared")(x), np.cos(x) ** 2)
        assert np.allclose(Profile.builtin("uniform")(x), 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Profile(kind="triangle")

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            Profile.from_samples([1.0, -0.5, 1.0])

    def test_sampled_interpolation_hits_nodes_and_midpoints(self):
        prof = Profile.from_samples([0.0, 1.0, 0.0, 1.0])
        step = TWO_PI / 4
        assert prof(np.array([step]))[0] == pytest.approx(1.0)
        assert prof(np.array([0.5 * step]))[0] == pytest.approx(0.5)

    def test_sampled_wraps_periodically(self):
        prof = Profile.from_samples([2.0, 0.0, 0.0, 0.0])
        just_below = TWO_PI - 1e-9
        assert prof(np.array([just_below]))[0] == pytest.approx(2.0, abs=1e-6)

    def test_roundtrip_dict(self):
        prof = Profile.from_samples([0.5, 1.0, 0.25])
        assert Profile.from_dict(prof.to_dict()) == prof
        assert Profile.from_dict({"builtin": "abs-cos"}) == Profile.builtin("abs-cos")


class TestClosedForms:
    def test_equal_settings(self):
        assert quadrant_prob_analytic(0.0, 0.0, Quadrant.II) == pytest.approx(0.5)

    def test_right_angle(self):
        assert quadrant_prob_analytic(0.0, math.pi / 2, Quadrant.II) == pytest.approx(0.25)

    def test_opposite_settings(self):
        assert quadrant_prob_analytic(0.0, math.pi, Quadrant.II) == pytest.approx(0.0, abs=1e-30)

    def test_mixed_cells_use_sine(self):
        d = 0.7
        assert quadrant_prob_analytic(0.0, d, Quadrant.IJ) == pytest.approx(0.5 * math.sin(d / 2) ** 2)

    @given(a=small_angles, b=small_angles)
    def test_partition_of_unity(self, a, b):
        probs = [quadrant_prob_analytic(a, b, q) for q in Quadrant]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert all(-1e-15 <= p <= 0.5 + 1e-15 for p in probs)

    @given(a=small_angles, b=small_angles)
    def test_correlation_is_minus_cosine(self, a, b):
        assert correlation_analytic(a, b) == pytest.approx(-math.cos(b - a), abs=1e-12)


class TestDensity:
    def test_peak(self):
        assert abs_cos_density(0.0, 0.0) == pytest.approx(0.25)

    def test_zero(self):
        assert abs_cos_density(0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_half_turn(self):
        a = math.pi / 3
        assert abs_cos_density(a, a + math.pi) == pytest.approx(0.25)

    def test_model_density_matches(self):
        s = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        assert np.allclose(ABS_COS.density(s, 0.7, 1.9), abs_cos_density(0.7, s))


class TestQuadrature:
    def test_abs_cos_right_angle(self):
        val = quadrant_prob_quadrature(ABS_COS, 0.0, math.pi / 2, Quadrant.II, 4096)
        assert val == pytest.approx(0.25, abs=1e-9)

    def test_uniform_frozen_value(self):
        # Oracle first: interval length (π - π/4) / (2π) = 3/8.
        assert uniform_ii_oracle(math.pi / 4) == pytest.approx(0.375, abs=1e-15)
        val = quadrant_prob_quadrature(UNIFORM, 0.0, math.pi / 4, Quadrant.II, 4096)
        assert val == pytest.approx(0.375, abs=1e-12)

    def test_empty_intersection_is_exactly_zero(self):
        assert quadrant_prob_quadrature(ABS_COS, 0.0, math.pi, Quadrant.II) == 0.0
        assert quadrant_prob_quadrature(UNIFORM, 1.0, 1.0 + math.pi, Quadrant.II) == 0.0

    def test_panel_floor(self):
        with pytest.raises(ValueError):
            quadrant_prob_quadrature(ABS_COS, 0.0, 1.0, Quadrant.II, panels=4)

    def test_matches_analytic_on_grid(self):
        grid = TWO_PI * np.arange(8) / 8
        worst = 0.0
        for a in grid:
            for b in grid:
                for q in Quadrant:
                    err = abs(
                        quadrant_prob_quadrature(ABS_COS, float(a), float(b), q, 1024)
                        - quadrant_prob_analytic(float(a), float(b), q)
                    )
                    worst = max(worst, err)
        assert worst < 1e-8

    def test_error_decreases_when_panels_double(self):
        def max_err(panels):
            grid = TWO_PI * np.arange(6) / 6 + 0.05
            return max(
                abs(
                    quadrant_prob_quadrature(ABS_COS, float(a), float(b), q, panels)
                    - quadrant_prob_analytic(float(a), float(b), q)
                )
                for a in grid
                for b in grid
                for q in Quadrant
            )

        errs = [max_err(n) for n in (16, 32, 64)]
        assert errs[1] < errs[0] / 2
        assert errs[2] < errs[1] / 2

    def test_normalization_integral(self):
        for a in (0.0, 1.1, 4.7):
            assert total_mass(ABS_COS, a, a + 0.4) == pytest.approx(1.0, abs=1e-12)

    def test_no_signaling_marginal(self):
        for a, b in ((0.0, 0.3), (1.2, 5.1), (4.0, 0.5)):
            table = quadrant_table_quadrature(ABS_COS, a, b, 2048)
            assert table[Quadrant.II] + table[Quadrant.IJ] == pytest.approx(0.5, abs=1e-10)
            assert table[Quadrant.II] + table[Quadrant.JI] == pytest.approx(0.5, abs=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(delta=small_angles)
    def test_rotation_invariance_structural(self, delta):
        samples = 0.5 + 0.5 * np.cos(3 * np.linspace(0.0, TWO_PI, 200, endpoint=False))
        model = CandidateModel(
            rho=Profile.builtin("uniform"),
            p1=Profile.from_samples(samples),
            p2=Profile.builtin("uniform"),
        ).normalized()
        a, b = 0.4, 1.3
        for q in (Quadrant.II, Quadrant.JI):
            assert quadrant_prob_quadrature(model, a + delta, b + delta, q, 512) == pytest.approx(
                quadrant_prob_quadrature(model, a, b, q, 512), abs=1e-6
            )


class TestOnePassTable:
    @pytest.mark.parametrize(
        "model,grid",
        [(ABS_COS, 32), (COS_SQUARED, 32), (SAMPLED_ABS_COS, 8)],
        ids=["abs-cos", "cos-squared", "sampled-256"],
    )
    def test_matches_per_cell_reference(self, model, grid):
        settings = TWO_PI * np.arange(grid) / grid
        worst = 0.0
        for a in map(float, settings):
            for b in map(float, settings):
                table = quadrant_table_quadrature(model, a, b)
                for q in Quadrant:
                    reference = reference_cell(model, a, b, q)
                    if reference == 0.0:
                        assert table[q] == 0.0
                    worst = max(worst, abs(table[q] - reference))
        assert worst < 1e-13

    @pytest.mark.parametrize(
        "model", [ABS_COS, COS_SQUARED, SAMPLED_ABS_COS], ids=["abs-cos", "cos-squared", "sampled-256"]
    )
    def test_one_pass_work_count(self, monkeypatch, model):
        evaluated = []
        density = CandidateModel.density

        def counting(self, s, a, b):
            out = density(self, s, a, b)
            evaluated.append(np.size(out))
            return out

        monkeypatch.setattr(CandidateModel, "density", counting)
        kinks = sum(len(p.kink_angles()) for p in (model.rho, model.p1, model.p2))
        for panels in (8, 512, DEFAULT_PANELS):
            for a, b in ((0.0, 0.0), (0.3, 2.2), (5.9, 1.0), (1.0, 1.0 + math.pi)):
                evaluated.clear()
                table = quadrant_table_quadrature(model, a, b, panels)
                assert 0 < sum(evaluated) <= 2 * (panels + 5 + kinks)
                assert sum(table.values()) == total_mass(model, a, b, panels)

    def test_half_turn_swaps_cells(self):
        # I(a + π) = J(a) and the abs-cos density is π-periodic, so turning
        # both settings by π exchanges II with JJ and IJ with JI.
        swap = {Quadrant.II: Quadrant.JJ, Quadrant.IJ: Quadrant.JI, Quadrant.JI: Quadrant.IJ, Quadrant.JJ: Quadrant.II}
        for a, b in ((0.0, 0.4), (1.1, 5.0), (2.5, 2.5), (4.0, 0.9)):
            table = quadrant_table_quadrature(ABS_COS, a, b)
            turned = quadrant_table_quadrature(ABS_COS, a + math.pi, b + math.pi)
            for q in Quadrant:
                assert turned[swap[q]] == pytest.approx(table[q], abs=1e-13)


class TestCorrelation:
    # Oracle: signed sums of the closed forms, sin²((b-a)/2) - cos²((b-a)/2).
    @pytest.mark.parametrize(
        "b,expected",
        [(0.0, -1.0), (math.pi / 2, 0.0), (math.pi, 1.0)],
    )
    def test_abs_cos_values(self, b, expected):
        oracle = math.sin(b / 2) ** 2 - math.cos(b / 2) ** 2
        assert oracle == pytest.approx(expected, abs=1e-12)
        assert correlation(ABS_COS, 0.0, b) == pytest.approx(expected, abs=1e-9)

    def test_matches_minus_cosine_on_grid(self):
        grid = TWO_PI * np.arange(8) / 8 + 0.01
        for a in grid:
            for b in grid:
                assert correlation(ABS_COS, float(a), float(b), 2048) == pytest.approx(
                    -math.cos(b - a), abs=1e-9
                )

    def test_unnormalized_model_reports_mass(self):
        lopsided = CandidateModel(
            rho=Profile.builtin("uniform"),
            p1=Profile.builtin("abs-cos"),
            p2=Profile.builtin("uniform"),
            scale=1.0,
        )
        with pytest.raises(NormalizationError, match="mass 4"):
            correlation(lopsided, 0.0, 1.0)


def model_chsh(m, settings) -> float:
    return chsh(*(correlation(m, a, b) for a, b in chsh_pairs(settings)))


class TestChsh:
    def test_pair_order(self):
        assert chsh_pairs(("a", "a2", "b", "b2")) == (("a", "b"), ("a", "b2"), ("a2", "b"), ("a2", "b2"))
        assert chsh(0.5, -0.25, 0.75, 1.0) == 0.75 + 1.75

    def test_tsirelson_value(self):
        assert model_chsh(ABS_COS, TSIRELSON_SETTINGS) == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        analytic = chsh(*(correlation_analytic(a, b) for a, b in chsh_pairs(TSIRELSON_SETTINGS)))
        assert analytic == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_degenerate_settings(self):
        assert model_chsh(ABS_COS, (0.0, 0.0, 0.0, 0.0)) == pytest.approx(2.0, abs=1e-9)

    def test_uniform_sawtooth_stays_classical(self):
        # Oracle: C(a,b) = -1 + 2 dist(a,b)/π gives exactly 2 at the Tsirelson settings.
        a, a2, b, b2 = TSIRELSON_SETTINGS
        oracle = abs(sawtooth(b - a) - sawtooth(b2 - a)) + abs(sawtooth(b - a2) + sawtooth(b2 - a2))
        assert oracle == pytest.approx(2.0, abs=1e-12)
        assert model_chsh(UNIFORM, TSIRELSON_SETTINGS) == pytest.approx(2.0, abs=1e-9)


class TestEmpiricalEquivalence:
    def test_rotation_equivalence(self):
        a, b = 1.1, 0.4
        assert empirically_equivalent(ABS_COS, (a, b), ABS_COS, (a - b, 0.0), 1e-12)

    def test_uniform_differs_from_abs_cos(self):
        # Frozen oracle gap at I×I: ½cos²(π/8) = 0.4267766953 vs 3/8.
        gap = 0.5 * math.cos(math.pi / 8) ** 2 - 0.375
        assert gap == pytest.approx(0.0517766953, abs=1e-9)
        assert not empirically_equivalent(ABS_COS, (0.0, math.pi / 4), UNIFORM, (0.0, math.pi / 4), 1e-3)

    def test_reflexive(self):
        assert empirically_equivalent(ABS_COS, (0.2, 1.7), ABS_COS, (0.2, 1.7), 0.0)

    def test_requires_normalized_models(self):
        bad = CandidateModel(
            rho=Profile.builtin("uniform"),
            p1=Profile.builtin("uniform"),
            p2=Profile.builtin("uniform"),
        )
        with pytest.raises(NormalizationError):
            empirically_equivalent(bad, (0.0, 0.0), ABS_COS, (0.0, 0.0), 1e-6)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, ABS_COS)
        loaded = load_model(path)
        assert loaded == ABS_COS

    def test_missing_scale_normalizes(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"rho": {"builtin": "uniform"}, "p1": {"builtin": "abs-cos"}, "p2": {"builtin": "uniform"}}))
        loaded = load_model(path)
        assert total_mass(loaded, 0.0, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert loaded.scale == pytest.approx(0.25, abs=1e-9)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"rho": {"builtin": "uniform"}}))
        with pytest.raises(ValueError):
            load_model(path)

    def test_mirrored_weight_side(self):
        mirrored = CandidateModel.abs_cos(weight_side=2)
        assert total_mass(mirrored, 0.3, 2.0) == pytest.approx(1.0, abs=1e-12)
        # The I×I mass is symmetric in which side carries the |cos| weight.
        for a, b in ((0.0, 0.9), (1.2, 4.4)):
            assert quadrant_prob_quadrature(mirrored, a, b, Quadrant.II) == pytest.approx(
                quadrant_prob_quadrature(ABS_COS, a, b, Quadrant.II), abs=1e-10
            )
