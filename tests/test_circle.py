import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim.circle import (
    BOUNDARY_EPS,
    HALF_PI,
    TWO_PI,
    Arc,
    arc_I,
    arc_J,
    arc_intersect,
    normalize,
    spin_values,
)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


def away_from_arc_boundaries(a: float, s: float, margin: float = 1e-6) -> bool:
    # Arc endpoints sit at a ± π/2 (mod π); stay clear so the half-open
    # epsilon convention cannot flip the expected result.
    gap = math.fmod(abs(normalize(s) - normalize(a + 0.5 * math.pi)), math.pi)
    return min(gap, math.pi - gap) > margin


def spin(side: int, a: float, s: float) -> int:
    return int(spin_values(side, a, [s])[0])


# Arc membership read off the spin values: side 1 is +1 exactly on I(a).
def in_I(a: float, s: float) -> bool:
    return spin(1, a, s) == 1


def in_J(a: float, s: float) -> bool:
    return spin(1, a, s) == -1


# Membership in a list of unwrapped pieces, as returned by arc_intersect.
def covers(pieces, s: float) -> bool:
    t = normalize(s)
    return any(p.start <= t < p.start + p.length for p in pieces)


def total_length(pieces) -> float:
    return sum(p.length for p in pieces)


class TestNormalize:
    def test_identity(self):
        assert normalize(0.0) == 0.0

    def test_period(self):
        assert normalize(TWO_PI) == 0.0

    def test_negative(self):
        assert normalize(-math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-15)

    def test_tiny_negative_rounds_into_range(self):
        r = normalize(-1e-20)
        assert 0.0 <= r < TWO_PI

    @pytest.mark.parametrize("x", [0.0, -0.0, TWO_PI, -TWO_PI, -1e-20, 1e17])
    def test_scalar_and_array_agree_bitwise(self, x):
        scalar = normalize(x)
        element = normalize(np.array([x]))[0]
        assert type(scalar) is float
        assert 0.0 <= scalar < TWO_PI
        assert np.array([scalar]).tobytes() == np.array([element]).tobytes()
        if x in (0.0, TWO_PI, -TWO_PI) or x == -1e-20:
            assert math.copysign(1.0, scalar) == 1.0 and scalar == 0.0
        else:
            assert scalar == math.fmod(x, TWO_PI)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the test
            with pytest.raises(ValueError):
                normalize(bad)
            with pytest.raises(ValueError):
                normalize([0.0, bad])

    @given(x=angles, k=st.integers(min_value=-5, max_value=5))
    def test_periodicity(self, x, k):
        assert normalize(x + TWO_PI * k) == pytest.approx(normalize(x), abs=1e-9)

    @given(x=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_array_matches_scalar(self, x):
        out = normalize(x)
        assert out.tobytes() == np.array([normalize(v) for v in x]).tobytes()
        assert np.all((out >= 0.0) & (out < TWO_PI))


class TestArcMembership:
    def test_I0_contains_zero(self):
        assert in_I(0.0, 0.0)

    def test_I0_right_endpoint_excluded(self):
        assert not in_I(0.0, math.pi / 2)

    def test_J0_contains_midpoint(self):
        assert in_J(0.0, math.pi)

    def test_left_endpoint_included(self):
        assert in_I(0.0, -math.pi / 2)
        assert in_J(0.0, math.pi / 2)

    def test_full_circle_contains_everything(self):
        full = Arc(0.3, TWO_PI)
        assert sum(hi - lo for lo, hi in full.intervals()) == pytest.approx(TWO_PI, abs=1e-15)
        for s in np.linspace(0.0, TWO_PI, 37, endpoint=False):
            assert any(lo <= s < hi for lo, hi in full.intervals())

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            Arc(0.0, 0.0)
        with pytest.raises(ValueError):
            Arc(0.0, TWO_PI + 0.1)

    @given(a=angles, s=angles)
    def test_shifted_families_coincide(self, a, s):
        # I(a + π) and J(a) are the same point set. The two starts are
        # computed along different float paths, so stay off the boundary.
        if not away_from_arc_boundaries(a, s):
            return
        assert in_I(a + math.pi, s) == in_J(a, s)

    @given(a=angles, s=angles, delta=angles)
    def test_rotation_covariance(self, a, s, delta):
        if not away_from_arc_boundaries(a - delta, s - delta):
            return
        assert in_I(a, s) == in_I(a + delta, s + delta)


class TestSpin:
    def test_side1_plus_on_I(self):
        assert spin(1, 0.0, 0.0) == 1

    def test_side2_minus_on_I(self):
        assert spin(2, 0.0, 0.0) == -1

    def test_side1_minus_on_J(self):
        assert spin(1, 0.0, math.pi) == -1

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            spin_values(3, 0.0, [0.0])
        with pytest.raises(ValueError):
            spin_values(0, 0.0, [0.0])

    def test_setting_period(self):
        assert spin(2, TWO_PI + 1.0, 1.0) == -1
        s = np.linspace(0.0, TWO_PI, 64, endpoint=False) + 0.01
        assert np.array_equal(spin_values(2, TWO_PI + 1.0, s), spin_values(2, 1.0, s))

    @given(a=angles, s=angles)
    def test_values_are_plus_minus_one(self, a, s):
        assert spin(1, a, s) in (-1, 1)
        assert spin(2, a, s) in (-1, 1)

    @given(a=angles, s=angles)
    def test_half_turn_flips_sign(self, a, s):
        if not away_from_arc_boundaries(a, s):
            return
        assert spin(1, a + math.pi, s) == -spin(1, a, s)

    @given(a=angles, s=angles)
    def test_sides_anti_align(self, a, s):
        assert spin(2, a, s) == -spin(1, a, s)

    def test_matches_cosine_sign_oracle(self):
        # Independent oracle: I(a) is where cos(s - a) > 0. Compare away from
        # the arc endpoints, where cos(s - a) = 0.
        xs = np.linspace(0.0, TWO_PI, 1001, endpoint=False) + 0.013
        for a in (0.0, 0.7, 4.2, -3.0, 100.0):
            c = np.cos(xs - a)
            clear = np.abs(c) > 1e-9
            vec = spin_values(1, a, xs)
            assert vec.dtype == np.int8
            assert np.array_equal(vec[clear], np.sign(c[clear]))
            assert np.array_equal(spin_values(2, a, xs)[clear], -np.sign(c[clear]))


def reference_spin_values(side: int, setting: float, s, eps: float = BOUNDARY_EPS) -> np.ndarray:
    """The earlier spin_values, built on normalize and np.where: the
    reference the one-buffer rewrite must match bit for bit."""
    t = normalize(np.asarray(s, dtype=float) - (setting - HALF_PI))
    t = np.where(t >= TWO_PI - eps, 0.0, t)
    values = np.where(t < math.pi - eps, 1, -1).astype(np.int8)
    return values if side == 1 else (-values).astype(np.int8)


def assert_matches_reference(setting: float, s) -> None:
    for side in (1, 2):
        got = spin_values(side, setting, s)
        want = reference_spin_values(side, setting, s)
        assert got.dtype == np.int8 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def ulp_neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


class TestSpinValuesReference:
    SETTINGS = (0.0, -0.0, 0.7, -3.0, math.pi, HALF_PI, TWO_PI, 100.0, 1e6)

    def test_arc_endpoints_and_eps_ties(self):
        for a in self.SETTINGS:
            points = []
            for end in (a - HALF_PI, a + HALF_PI, a + 1.5 * math.pi):
                for shift in (-BOUNDARY_EPS, 0.0, BOUNDARY_EPS):
                    points += ulp_neighbours(end + shift)
            assert_matches_reference(a, np.array(points))

    def test_signed_zero_and_period_edge(self):
        below_period = np.nextafter(TWO_PI, 0.0)  # 2π - 1 ulp
        points = np.array([-0.0, 0.0, below_period, TWO_PI, -below_period, -TWO_PI, -1e-300, 5e-324])
        for a in self.SETTINGS + (below_period, -below_period, HALF_PI + below_period):
            assert_matches_reference(a, points)

    def test_dense_and_large_configurations(self):
        rng = np.random.default_rng(5)
        for a in self.SETTINGS:
            assert_matches_reference(a, rng.uniform(-20.0, 20.0, 4096))
            assert_matches_reference(a, rng.uniform(-1e17, 1e17, 256))

    def test_scalar_and_list_input(self):
        for a in self.SETTINGS:
            for s in (0.0, -0.0, a - HALF_PI, 3.0):
                assert_matches_reference(a, s)
                assert spin_values(1, a, s).ndim == 0
            assert_matches_reference(a, [0.0, 1.0, a + HALF_PI])

    @given(a=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
           s=st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e17, max_value=1e17),
                      min_size=1, max_size=8))
    def test_any_finite_angles(self, a, s):
        assert_matches_reference(a, s)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_without_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for side in (1, 2):
                with pytest.raises(ValueError, match="finite"):
                    spin_values(side, 0.0, [0.0, bad])
                with pytest.raises(ValueError, match="finite"):
                    spin_values(side, bad, [0.0])


class TestIntersect:
    def test_quarter_overlap(self):
        # I(0) ∩ I(π/2) is the single arc [0, π/2).
        pieces = arc_intersect(arc_I(0.0), arc_I(math.pi / 2))
        assert len(pieces) == 1
        assert pieces[0].start == pytest.approx(0.0, abs=1e-12)
        assert pieces[0].length == pytest.approx(math.pi / 2, abs=1e-12)

    def test_idempotent(self):
        pieces = arc_intersect(arc_I(0.0), arc_I(0.0))
        assert total_length(pieces) == pytest.approx(math.pi, abs=1e-12)
        for s in (0.0, -1.5, 1.5, 0.7):
            assert covers(pieces, s) == in_I(0.0, s)

    def test_complementary_arcs_empty(self):
        assert arc_intersect(arc_I(0.0), arc_J(0.0)) == []

    def test_wraparound_split(self):
        # I(-π/4) ∩ I(0) = [-π/2, π/4), which crosses 0 and splits in two.
        pieces = arc_intersect(arc_I(-math.pi / 4), arc_I(0.0))
        assert len(pieces) == 2
        assert total_length(pieces) == pytest.approx(3 * math.pi / 4, abs=1e-12)

    @given(a=angles, b=angles)
    def test_lengths_partition_half_circle(self, a, b):
        with_I = total_length(arc_intersect(arc_I(a), arc_I(b)))
        with_J = total_length(arc_intersect(arc_I(a), arc_J(b)))
        assert with_I + with_J == pytest.approx(math.pi, abs=1e-9)

    @given(a=angles, b=angles)
    def test_symmetric_as_point_set(self, a, b):
        xy = arc_intersect(arc_I(a), arc_J(b))
        yx = arc_intersect(arc_J(b), arc_I(a))
        assert total_length(xy) == pytest.approx(total_length(yx), abs=1e-9)
        for s in np.linspace(0.0, TWO_PI, 16, endpoint=False) + 0.0137:
            assert covers(xy, float(s)) == covers(yx, float(s))

    @given(a=angles, b=angles)
    @settings(max_examples=60)
    def test_total_length_bounded(self, a, b):
        x, y = arc_I(a), arc_J(b)
        assert total_length(arc_intersect(x, y)) <= min(x.length, y.length) + 1e-9

    @given(a=angles, b=angles)
    @settings(max_examples=60)
    def test_pieces_disjoint_and_unwrapped(self, a, b):
        pieces = arc_intersect(arc_I(a), arc_I(b))
        for p in pieces:
            assert p.start + p.length <= TWO_PI + 1e-12
        for p, q in zip(pieces, pieces[1:]):
            assert p.start + p.length <= q.start + 1e-12
