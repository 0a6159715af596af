import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim.circle import HALF_PI, TWO_PI, Arc, arc_intersect, normalize
from lcsim import models
from lcsim.models import (
    TSIRELSON_SETTINGS,
    CandidateModel,
    NormalizationError,
    Profile,
    Quadrant,
    chsh,
    chsh_pairs,
    correlation,
    load_model,
    quadrant_prob_quadrature,
    quadrant_table_analytic,
    quadrant_table_quadrature,
    quadrature_error_bound,
    save_model,
    unit_mass_table,
)

ABS_COS = CandidateModel.one_sided("abs-cos")
COS_SQUARED = CandidateModel.one_sided("cos-squared")
UNIFORM = CandidateModel.one_sided("uniform")
SAMPLED_ABS_COS = CandidateModel(
    rho=Profile("uniform"),
    p1=Profile.from_samples(np.abs(np.cos(TWO_PI * np.arange(256) / 256))),
    p2=Profile("uniform"),
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


# Reference for the table: each cell integrated on its own over the arc
# intersection, split at the shifted profile kinks, with REFERENCE_PANELS
# two-node Gauss panels per cell.
REFERENCE_PANELS = 4096


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


def reference_cell(m, a, b, quadrant, panels=REFERENCE_PANELS) -> float:
    a, b = normalize(a), normalize(b)
    # The detection arcs I(x) = Arc(x - π/2, π) and J(x) = Arc(x + π/2, π).
    arc1 = Arc(a - HALF_PI if quadrant in (Quadrant.II, Quadrant.IJ) else a + HALF_PI, math.pi)
    arc2 = Arc(b - HALF_PI if quadrant in (Quadrant.II, Quadrant.JI) else b + HALF_PI, math.pi)
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
        assert np.allclose(Profile("abs-cos")(x), np.abs(np.cos(x)))
        assert np.allclose(Profile("cos-squared")(x), np.cos(x) ** 2)
        assert np.allclose(Profile("uniform")(x), 1.0)

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
        assert Profile.from_dict({"builtin": "abs-cos"}) == Profile("abs-cos")

    @pytest.mark.parametrize("doc", [{}, {"builtin": "abs-cos", "samples": [1.0, 0.0]}])
    def test_dict_needs_exactly_one_field(self, doc):
        with pytest.raises(ValueError, match="exactly one of"):
            Profile.from_dict(doc)

    def test_sample_angles_are_the_cuts(self):
        # Interpolation nodes and quadrature cuts are one array, so a cut
        # falls exactly on a node for any N, not only for powers of two.
        prof = Profile.from_samples(np.arange(200) % 3)
        nodes = prof.kink_angles()
        assert nodes.size == 200 and nodes[0] == 0.0 and np.all(np.diff(nodes) > 0.0)
        assert np.array_equal(prof(nodes), np.arange(200) % 3)
        with pytest.raises(ValueError, match="finite"):
            prof(np.array([0.0, np.nan]))

    @pytest.mark.parametrize("n", [2, 3, 200, 256])
    def test_sampled_values_are_periodic_interp_bit_for_bit(self, n):
        # The padded nodes are built once per profile; np.interp with
        # period=2π builds them on every call.
        rng = np.random.default_rng(n)
        prof = Profile.from_samples(rng.uniform(0.0, 2.0, n))
        x = np.concatenate((
            -rng.uniform(0.0, 50.0, 200),
            TWO_PI * np.arange(-5, 6),
            [-0.0, np.nextafter(TWO_PI, 0.0), np.nextafter(-TWO_PI, 0.0)],
            rng.uniform(-20.0, 20.0, 2000),
            prof.kink_angles(),
        ))
        expected = np.interp(x, prof.kink_angles(), prof.samples, period=TWO_PI)
        assert np.array_equal(prof(x).view(np.uint64), expected.view(np.uint64))
        assert prof(x[0]) == expected[0] and np.ndim(prof(x[0])) == 0

    def test_largest_sample_times_count_must_be_finite(self):
        # Interpolation slopes reach about the largest sample times N / 2π.
        assert Profile.from_samples([8e307, 0.0]).peak == 8e307
        with pytest.raises(ValueError, match="profile samples are too large"):
            Profile.from_samples([8e307, 0.0, 0.0])


def closed_form_cells(a: float, b: float) -> list[float]:
    """Oracle: the four singlet cells in Quadrant order, one scalar at a time."""
    half = 0.5 * (b - a)
    matched, mixed = 0.5 * math.cos(half) ** 2, 0.5 * math.sin(half) ** 2
    return [matched, mixed, mixed, matched]


def signed_sum(table) -> float:
    """Oracle: -II + IJ + JI - JJ, one cell at a time from the left."""
    total = -float(table[0])
    total += float(table[1])
    total += float(table[2])
    total -= float(table[3])
    return total


cell_lists = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4)


class TestBuiltinTable:
    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("name", sorted(models.BUILTINS))
    def test_scale_gives_unit_mass(self, name, side):
        mass = quadrant_table_quadrature(CandidateModel.one_sided(name, side), 0.0, 0.0).sum()
        assert abs(mass - 1.0) <= 1e-15

    @pytest.mark.parametrize("name", sorted(models.BUILTINS))
    def test_peak_is_the_largest_value(self, name):
        assert Profile(name).peak == 1.0 == Profile(name)(np.linspace(0.0, TWO_PI, 4097)).max()

    @pytest.mark.parametrize("name", sorted(models.BUILTINS))
    def test_kinks_are_cut(self, name):
        # On p1 or p2 the abs-cos kinks fall on arc endpoints, which are cut
        # anyway; on rho they fall inside the pieces unless the row lists
        # them, and no rule would then come within the bound of another.
        flat = Profile("uniform")
        m = CandidateModel(rho=Profile(name), p1=flat, p2=flat, scale=models.BUILTINS[name][1])
        settings = TWO_PI * np.arange(16) / 16 + 0.1
        a, b = settings[:, None], settings
        table = quadrant_table_quadrature(m, a, b)
        assert np.all(np.abs(table - reference_tables(m, a, b)).max(axis=-1) <= quadrature_error_bound(m, table))


class TestClosedForms:
    def test_equal_settings(self):
        assert quadrant_table_analytic(0.0, 0.0)[Quadrant.II.index] == pytest.approx(0.5)

    def test_right_angle(self):
        assert quadrant_table_analytic(0.0, math.pi / 2)[Quadrant.II.index] == pytest.approx(0.25)

    def test_opposite_settings(self):
        assert quadrant_table_analytic(0.0, math.pi)[Quadrant.II.index] == pytest.approx(0.0, abs=1e-30)

    def test_mixed_cells_use_sine(self):
        d = 0.7
        assert quadrant_table_analytic(0.0, d)[Quadrant.IJ.index] == pytest.approx(0.5 * math.sin(d / 2) ** 2)

    @given(a=small_angles, b=small_angles)
    def test_partition_of_unity(self, a, b):
        probs = quadrant_table_analytic(a, b)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert all(-1e-15 <= p <= 0.5 + 1e-15 for p in probs)

    @given(a=small_angles, b=small_angles)
    def test_correlation_is_minus_cosine(self, a, b):
        assert correlation(quadrant_table_analytic(a, b)) == pytest.approx(-math.cos(b - a), abs=1e-12)

    @pytest.mark.parametrize(
        "a,b",
        [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (0.3, 0.3 + math.pi), (0.3, 0.3 - math.pi),
         (0.0, math.pi), (math.pi, 0.0), (0.0, TWO_PI), (0.0, -TWO_PI), (1.0, 1.0 + 4 * TWO_PI)],
    )
    def test_matches_cell_formulas_at_special_separations(self, a, b):
        table = quadrant_table_analytic(a, b)
        assert table.shape == (4,)
        assert np.abs(table - closed_form_cells(a, b)).max() <= 1e-15

    def test_matches_cell_formulas_on_grid(self):
        # The 39-point scan grid holds settings where libm pow(x, 2) is not
        # the nearest double to x²; every cell must be 0.5 times the
        # correctly rounded square, found in exact rational arithmetic.
        def half_square(x: float) -> float:
            return 0.5 * float(Fraction(x) ** 2)

        grid = np.arange(39) * (TWO_PI / 39)
        tables = quadrant_table_analytic(grid[:, None], grid)
        for i, a in enumerate(grid.tolist()):
            for j, b in enumerate(grid.tolist()):
                half = 0.5 * (b - a)
                matched, mixed = half_square(math.cos(half)), half_square(math.sin(half))
                assert tables[i, j].tolist() == [matched, mixed, mixed, matched]

    def test_broadcast_equals_single_calls(self):
        a = np.linspace(-7.0, 7.0, 5)[:, None]
        b = np.linspace(0.0, TWO_PI, 3)
        table = quadrant_table_analytic(a, b)
        assert table.shape == (5, 3, 4)
        for i in range(5):
            for j in range(3):
                assert np.array_equal(table[i, j], quadrant_table_analytic(float(a[i, 0]), float(b[j])))
        assert quadrant_table_analytic(np.zeros((2, 0)), 1.0).shape == (2, 0, 4)


class TestSignedSum:
    @given(table=cell_lists)
    def test_left_to_right_bitwise(self, table):
        assert np.float64(correlation(table)).tobytes() == np.float64(signed_sum(table)).tobytes()

    @given(rows=st.lists(cell_lists, min_size=1, max_size=6))
    def test_last_axis_bitwise(self, rows):
        out = correlation(np.array(rows))
        assert out.shape == (len(rows),)
        assert out.tobytes() == np.array([signed_sum(row) for row in rows]).tobytes()

    def test_signs(self):
        assert [correlation(np.eye(4)[q.index]) for q in Quadrant] == [-1.0, 1.0, 1.0, -1.0]


class TestDensity:
    # The forced diagonal line density ¼|cos(s - a)|, read off the model.
    def test_peak(self):
        assert ABS_COS.density(0.0, 0.0, 1.3) == pytest.approx(0.25)

    def test_zero(self):
        assert ABS_COS.density(math.pi / 2, 0.0, 1.3) == pytest.approx(0.0, abs=1e-15)

    def test_half_turn(self):
        a = math.pi / 3
        assert ABS_COS.density(a + math.pi, a, 0.4) == pytest.approx(0.25)

    def test_model_density_matches(self):
        s = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        assert np.allclose(ABS_COS.density(s, 0.7, 1.9), 0.25 * np.abs(np.cos(s - 0.7)))

    def test_density_bound_must_be_finite(self):
        # scale · peaks · 2π is 1.26e308 at the first scale and overflows at
        # the second; the first model's quadrature stays finite.
        flat = Profile("uniform")
        edge = CandidateModel(rho=flat, p1=flat, p2=flat, scale=2e307)
        assert np.isfinite(quadrant_table_quadrature(edge, 0.0, 0.0).sum())
        with pytest.raises(ValueError, match="model is too large"):
            CandidateModel(rho=flat, p1=flat, p2=flat, scale=3e307)


class TestQuadrature:
    def test_abs_cos_right_angle(self):
        val = quadrant_prob_quadrature(ABS_COS, 0.0, math.pi / 2, Quadrant.II)
        assert val == pytest.approx(0.25, abs=1e-9)

    def test_uniform_frozen_value(self):
        # Oracle first: interval length (π - π/4) / (2π) = 3/8.
        assert uniform_ii_oracle(math.pi / 4) == pytest.approx(0.375, abs=1e-15)
        val = quadrant_prob_quadrature(UNIFORM, 0.0, math.pi / 4, Quadrant.II)
        assert val == pytest.approx(0.375, abs=1e-12)

    def test_empty_intersection_is_exactly_zero(self):
        assert quadrant_prob_quadrature(ABS_COS, 0.0, math.pi, Quadrant.II) == 0.0
        assert quadrant_prob_quadrature(UNIFORM, 1.0, 1.0 + math.pi, Quadrant.II) == 0.0

    def test_matches_analytic_on_grid(self):
        grid = TWO_PI * np.arange(8) / 8
        worst = 0.0
        for a in grid:
            for b in grid:
                for q in Quadrant:
                    err = abs(
                        quadrant_prob_quadrature(ABS_COS, float(a), float(b), q)
                        - quadrant_table_analytic(float(a), float(b))[q.index]
                    )
                    worst = max(worst, err)
        assert worst < 1e-8

    def test_error_decreases_as_nodes_grow(self, monkeypatch):
        def max_err(nodes):
            monkeypatch.setattr(models, "GAUSS_NODES", nodes)
            grid = TWO_PI * np.arange(6) / 6 + 0.05
            return max(
                abs(
                    quadrant_table_quadrature(ABS_COS, float(a), float(b))[q.index]
                    - quadrant_table_analytic(float(a), float(b))[q.index]
                )
                for a in grid
                for b in grid
                for q in Quadrant
            )

        errs = [max_err(n) for n in (2, 3, 4)]
        assert errs[1] < errs[0] / 2
        assert errs[2] < errs[1] / 2

    def test_normalization_integral(self):
        for a in (0.0, 1.1, 4.7):
            assert quadrant_table_quadrature(ABS_COS, a, a + 0.4).sum() == pytest.approx(1.0, abs=1e-12)

    def test_no_signaling_marginal(self):
        for a, b in ((0.0, 0.3), (1.2, 5.1), (4.0, 0.5)):
            ii, ij, ji, _ = quadrant_table_quadrature(ABS_COS, a, b)
            assert ii + ij == pytest.approx(0.5, abs=1e-10)
            assert ii + ji == pytest.approx(0.5, abs=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(delta=small_angles)
    def test_rotation_invariance_structural(self, delta):
        samples = 0.5 + 0.5 * np.cos(3 * np.linspace(0.0, TWO_PI, 200, endpoint=False))
        model = CandidateModel(
            rho=Profile("uniform"),
            p1=Profile.from_samples(samples),
            p2=Profile("uniform"),
        ).normalized()
        a, b = 0.4, 1.3
        for q in (Quadrant.II, Quadrant.JI):
            assert quadrant_prob_quadrature(model, a + delta, b + delta, q) == pytest.approx(
                quadrant_prob_quadrature(model, a, b, q), abs=1e-6
            )


def count_density_nodes(monkeypatch) -> list[int]:
    """Patch CandidateModel.density to record the node count of every call."""
    evaluated = []
    density = CandidateModel.density

    def counting(self, s, a, b):
        out = density(self, s, a, b)
        evaluated.append(np.size(out))
        return out

    monkeypatch.setattr(CandidateModel, "density", counting)
    return evaluated


def kink_count(model) -> int:
    return sum(len(p.kink_angles()) for p in (model.rho, model.p1, model.p2))


def setting_lattice(grid: int):
    settings = TWO_PI * np.arange(grid) / grid
    return np.meshgrid(settings, settings, indexing="ij")


def reference_tables(m, a, b):
    """Tables of `m` with 64 Gauss-Legendre nodes on every piece."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "GAUSS_NODES", 64)
        patch.setattr(models, "POLYNOMIAL_NODES", 64)
        return quadrant_table_quadrature(m, a, b)


def largest_cell_error(tables, reference):
    return np.abs(tables - reference).max(axis=-1)


FIXTURE_256 = Path(__file__).with_name("fixtures") / "abs-cos-256.json"


class TestErrorBound:
    # The settings of a 32 × 32 lattice, with its ties, and the same moved
    # off the lattice.
    A, B = (np.concatenate((x.ravel(), x.ravel() + 0.1)) for x in setting_lattice(32))

    @pytest.mark.parametrize(
        "model",
        [
            *(CandidateModel.one_sided(name, side) for name in sorted(models.BUILTINS) for side in (1, 2)),
            load_model(FIXTURE_256),
        ],
        ids=[*(f"{name}-side-{side}" for name in sorted(models.BUILTINS) for side in (1, 2)), "samples-256"],
    )
    def test_bound_covers_the_64_node_reference(self, model):
        tables = quadrant_table_quadrature(model, self.A, self.B)
        bound = quadrature_error_bound(model, tables)
        assert bound.shape == self.A.shape
        assert np.all(largest_cell_error(tables, reference_tables(model, self.A, self.B)) <= bound)
        assert bound.max() < 2e-13

    def test_high_frequency_profile_stays_covered(self, monkeypatch):
        # cos²(4x) has top frequency 8: 8 nodes miss it by percents, and
        # truncation, not rounding, sets the 16-node error, which the bound
        # must still cover.
        monkeypatch.setitem(models.BUILTINS, "cos-squared-4x", (lambda x: np.cos(4.0 * x) ** 2, 1.0 / math.pi, (), 8))
        for side in (1, 2):
            m = CandidateModel.one_sided("cos-squared-4x", side)
            reference = reference_tables(m, self.A, self.B)
            tables = quadrant_table_quadrature(m, self.A, self.B)
            error = largest_cell_error(tables, reference)
            assert error.max() > 1e-12
            assert np.all(error <= quadrature_error_bound(m, tables))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(models, "GAUSS_NODES", 8)
                tables = quadrant_table_quadrature(m, self.A, self.B)
                error = largest_cell_error(tables, reference)
                assert error.max() > 1e-2
                assert np.all(error <= quadrature_error_bound(m, tables))

    @pytest.mark.parametrize(
        "model", [SAMPLED_ABS_COS, UNIFORM, load_model(FIXTURE_256)], ids=["sampled-256", "uniform", "samples-256-file"]
    )
    def test_two_node_tables_sit_within_rounding_of_sixteen_node_ones(self, monkeypatch, model):
        tables = quadrant_table_quadrature(model, self.A, self.B)
        bound = quadrature_error_bound(model, tables)
        monkeypatch.setattr(models, "POLYNOMIAL_NODES", 16)
        assert np.all(largest_cell_error(tables, quadrant_table_quadrature(model, self.A, self.B)) <= bound)

    def test_bound_covers_a_near_tie_as_the_tie_it_is_taken_for(self):
        # A separation within BOUNDARY_EPS of 0 or π is taken as a tie, so
        # the bound covers the tie's table, not the exact masses at the
        # settings given: here the mixed cells read exactly 0 where the
        # exact mass is 9e-13 / 2π, above the bound.
        table = quadrant_table_quadrature(UNIFORM, 0.0, 9e-13)
        bound = float(quadrature_error_bound(UNIFORM, table))
        exact = 9e-13 / (2 * math.pi)
        assert table[1] == table[2] == 0.0
        assert np.array_equal(table, quadrant_table_quadrature(UNIFORM, 0.0, 0.0))
        assert bound == pytest.approx(3.15e-14, rel=1e-3)
        assert exact == pytest.approx(1.43e-13, rel=1e-3)
        assert exact > bound

    def test_a_nan_cell_makes_its_bound_nan(self):
        # A NaN bound refuses every tolerance of the reproduction scan.
        tables = quadrant_table_quadrature(ABS_COS, np.array([0.0, 1.0]), 2.0)
        tables[1, 2] = np.nan
        bound = quadrature_error_bound(ABS_COS, tables)
        assert np.isfinite(bound[0]) and np.isnan(bound[1])


class TestBatchedTables:
    @pytest.mark.parametrize(
        "model,grid,nodes",
        [(ABS_COS, 32, 16), (COS_SQUARED, 32, 16), (SAMPLED_ABS_COS, 8, 2)],
        ids=["abs-cos", "cos-squared", "sampled-256"],
    )
    def test_block_size_does_not_change_tables(self, monkeypatch, model, grid, nodes):
        a, b = setting_lattice(grid)
        default = quadrant_table_quadrature(model, a, b)
        assert default.shape == (grid, grid, 4)
        monkeypatch.setattr(models, "QUADRATURE_BLOCK", nodes * (5 + kink_count(model)))  # one setting a block
        assert np.array_equal(quadrant_table_quadrature(model, a, b), default)
        monkeypatch.setattr(models, "QUADRATURE_BLOCK", 1)  # less than a setting still takes one
        assert np.array_equal(quadrant_table_quadrature(model, a, b), default)

    def test_settings_broadcast_like_single_calls(self):
        bs = np.linspace(-1.0, 7.0, 13)
        batched = quadrant_table_quadrature(ABS_COS, 0.3, bs)
        assert batched.shape == (13, 4)
        assert np.array_equal(batched, np.stack([quadrant_table_quadrature(ABS_COS, 0.3, b) for b in bs]))
        assert quadrant_table_quadrature(ABS_COS, np.empty((0, 3)), 0.0).shape == (0, 3, 4)

    def test_scan_takes_few_density_calls(self, monkeypatch):
        # The whole 32x32 lattice in blocks of QUADRATURE_BLOCK nodes, where
        # one table a setting took 1,024 calls.
        evaluated = count_density_nodes(monkeypatch)
        a, b = setting_lattice(32)
        quadrant_table_quadrature(ABS_COS, a, b)
        nodes = 1024 * 16 * (5 + kink_count(ABS_COS))
        assert sum(evaluated) == nodes
        assert len(evaluated) <= math.ceil(nodes / models.QUADRATURE_BLOCK)
        assert max(evaluated) <= models.QUADRATURE_BLOCK


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
                        assert table[q.index] == 0.0
                    worst = max(worst, abs(table[q.index] - reference))
        assert worst < 1e-13

    @pytest.mark.parametrize(
        "model,nodes", [(ABS_COS, 16), (COS_SQUARED, 16), (SAMPLED_ABS_COS, 2)], ids=["abs-cos", "cos-squared", "sampled-256"]
    )
    def test_one_pass_work_count(self, monkeypatch, model, nodes):
        evaluated = count_density_nodes(monkeypatch)
        for a, b in ((0.0, 0.0), (0.3, 2.2), (5.9, 1.0), (1.0, 1.0 + math.pi)):
            evaluated.clear()
            table = quadrant_table_quadrature(model, a, b)
            assert table.shape == (4,)
            assert evaluated == [nodes * (5 + kink_count(model))]  # one rule on every piece, one call

    def test_half_turn_swaps_cells(self):
        # I(a + π) = J(a) and the abs-cos density is π-periodic, so turning
        # both settings by π exchanges II with JJ and IJ with JI.
        swap = {Quadrant.II: Quadrant.JJ, Quadrant.IJ: Quadrant.JI, Quadrant.JI: Quadrant.IJ, Quadrant.JJ: Quadrant.II}
        for a, b in ((0.0, 0.4), (1.1, 5.0), (2.5, 2.5), (4.0, 0.9)):
            table = quadrant_table_quadrature(ABS_COS, a, b)
            turned = quadrant_table_quadrature(ABS_COS, a + math.pi, b + math.pi)
            for q in Quadrant:
                assert turned[swap[q].index] == pytest.approx(table[q.index], abs=1e-13)


class TestCorrelation:
    # Oracle: signed sums of the closed forms, sin²((b-a)/2) - cos²((b-a)/2).
    @pytest.mark.parametrize(
        "b,expected",
        [(0.0, -1.0), (math.pi / 2, 0.0), (math.pi, 1.0)],
    )
    def test_abs_cos_values(self, b, expected):
        oracle = math.sin(b / 2) ** 2 - math.cos(b / 2) ** 2
        assert oracle == pytest.approx(expected, abs=1e-12)
        assert correlation(unit_mass_table(ABS_COS, 0.0, b)) == pytest.approx(expected, abs=1e-9)

    def test_matches_minus_cosine_on_grid(self):
        grid = TWO_PI * np.arange(8) / 8 + 0.01
        for a in grid:
            for b in grid:
                assert correlation(unit_mass_table(ABS_COS, float(a), float(b))) == pytest.approx(
                    -math.cos(b - a), abs=1e-9
                )

    def test_unnormalized_model_reports_mass(self):
        lopsided = CandidateModel(
            rho=Profile("uniform"),
            p1=Profile("abs-cos"),
            p2=Profile("uniform"),
            scale=1.0,
        )
        with pytest.raises(NormalizationError, match="mass 4"):
            unit_mass_table(lopsided, 0.0, 1.0)

    def test_nan_table_is_refused(self, monkeypatch):
        monkeypatch.setattr(models, "quadrant_table_quadrature", lambda m, a, b: np.full(4, np.nan))
        with pytest.raises(NormalizationError, match="mass nan"):
            unit_mass_table(ABS_COS, 0.0, 1.0)


def model_chsh(m, settings) -> float:
    return chsh(*(correlation(unit_mass_table(m, a, b)) for a, b in chsh_pairs(settings)))


class TestChsh:
    def test_pair_order(self):
        assert chsh_pairs(("a", "a2", "b", "b2")) == (("a", "b"), ("a", "b2"), ("a2", "b"), ("a2", "b2"))
        assert chsh(0.5, -0.25, 0.75, 1.0) == 0.75 + 1.75

    def test_tsirelson_value(self):
        assert model_chsh(ABS_COS, TSIRELSON_SETTINGS) == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        a, b = np.array(chsh_pairs(TSIRELSON_SETTINGS)).T
        analytic = chsh(*correlation(quadrant_table_analytic(a, b)))
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
    # Two candidates are empirically equivalent at given settings when their
    # unit-mass quadrant tables agree.
    def test_rotation_equivalence(self):
        a, b = 1.1, 0.4
        gap = np.abs(unit_mass_table(ABS_COS, a, b) - unit_mass_table(ABS_COS, a - b, 0.0))
        assert gap.max() <= 1e-12

    def test_uniform_differs_from_abs_cos(self):
        # Frozen oracle gap at I×I: ½cos²(π/8) = 0.4267766953 vs 3/8.
        gap = 0.5 * math.cos(math.pi / 8) ** 2 - 0.375
        assert gap == pytest.approx(0.0517766953, abs=1e-9)
        tables = [unit_mass_table(m, 0.0, math.pi / 4) for m in (ABS_COS, UNIFORM)]
        assert (tables[0] - tables[1])[Quadrant.II.index] == pytest.approx(gap, abs=1e-9)

    def test_reflexive(self):
        assert np.array_equal(unit_mass_table(ABS_COS, 0.2, 1.7), unit_mass_table(ABS_COS, 0.2, 1.7))

    def test_requires_normalized_models(self):
        bad = CandidateModel(
            rho=Profile("uniform"),
            p1=Profile("uniform"),
            p2=Profile("uniform"),
        )
        with pytest.raises(NormalizationError):
            unit_mass_table(bad, 0.0, 0.0)


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
        assert quadrant_table_quadrature(loaded, 0.0, 0.0).sum() == pytest.approx(1.0, abs=1e-9)
        assert loaded.scale == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize(
        "doc, message",
        [({"p1": {"samples": [10**400, 1.0]}}, "every entry of profile samples must be a finite number"),
         ({"scale": 10**400}, "model scale must be a finite number")],
        ids=["samples", "scale"],
    )
    def test_integer_too_large_for_a_float_rejected(self, doc, message):
        with pytest.raises(ValueError, match=message):
            CandidateModel.from_dict({"rho": {"builtin": "uniform"}, "p1": {"builtin": "abs-cos"},
                                      "p2": {"builtin": "uniform"}, **doc})

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"rho": {"builtin": "uniform"}}))
        with pytest.raises(ValueError):
            load_model(path)

    def test_mirrored_weight_side(self):
        mirrored = CandidateModel.one_sided("abs-cos", weight_side=2)
        assert quadrant_table_quadrature(mirrored, 0.3, 2.0).sum() == pytest.approx(1.0, abs=1e-12)
        # The I×I mass is symmetric in which side carries the |cos| weight.
        for a, b in ((0.0, 0.9), (1.2, 4.4)):
            assert quadrant_prob_quadrature(mirrored, a, b, Quadrant.II) == pytest.approx(
                quadrant_prob_quadrature(ABS_COS, a, b, Quadrant.II), abs=1e-10
            )
