import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcsim.circle import (
    BOUNDARY_EPS,
    HALF_PI,
    PHASE_FLIPS,
    TWO_PI,
    _reads_plus,
    Arc,
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


# The detection arcs I(a) = [a - π/2, a + π/2) and J(a), its complement.
def arc_I(a: float) -> Arc:
    return Arc(a - HALF_PI, math.pi)


def arc_J(a: float) -> Arc:
    return Arc(a + HALF_PI, math.pi)


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
    @example(x=-6.058211775997954e-16, k=2)  # 0.0 against 2π - 1 ulp: neighbours on the circle
    def test_periodicity(self, x, k):
        gap = abs(normalize(x + TWO_PI * k) - normalize(x))
        assert min(gap, TWO_PI - gap) <= 1e-9

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
        # With both non-finite, s - setting can warn (inf - inf), so a
        # non-finite setting is refused first, even with no configurations.
        cases = [(0.0, [0.0, bad]), (bad, [0.0]), (bad, bad), (bad, [0.0, bad]), (bad, [math.inf]), (bad, [])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for side in (1, 2):
                for setting, s in cases:
                    with pytest.raises(ValueError, match="finite"):
                        spin_values(side, setting, s)


def mod_spin_values(side: int, setting: float, s) -> np.ndarray:
    """The one-buffer kernel on np.mod that the np.fmod kernel replaced: the
    reference spin_values must match value for value."""
    sign = 1 if side == 1 else -1
    t = np.asarray(np.subtract(s, setting - HALF_PI, dtype=float))
    np.mod(t, TWO_PI, out=t)
    plus = (t < math.pi - BOUNDARY_EPS) | (t >= TWO_PI - BOUNDARY_EPS)
    return np.where(plus, sign, -sign).astype(np.int8)


class TestSpinKernelReference:
    SETTINGS = (0.0, 0.7, -3.0, HALF_PI, TWO_PI, 1e6)

    def assert_matches(self, setting: float, s) -> None:
        for side in (1, 2):
            got = spin_values(side, setting, s)
            assert got.tobytes() == mod_spin_values(side, setting, s).tobytes()

    def test_arc_endpoints_eps_and_ulps(self):
        for a in self.SETTINGS:
            points = [
                x
                for end in (a - HALF_PI, a + HALF_PI)
                for shift in (-BOUNDARY_EPS, 0.0, BOUNDARY_EPS)
                for x in ulp_neighbours(end + shift)
            ]
            self.assert_matches(a, np.array(points))

    def test_signed_zeros_and_whole_turns(self):
        k = np.concatenate((np.arange(-64, 65), 10.0 ** np.arange(2, 15)))
        turns = np.concatenate((k * TWO_PI, -k * TWO_PI))
        points = np.concatenate(([0.0, -0.0], turns, np.nextafter(turns, -math.inf), np.nextafter(turns, math.inf)))
        for a in self.SETTINGS + (-HALF_PI, 1.5 * math.pi):
            self.assert_matches(a, points)

    def test_magnitudes_up_to_1e15(self):
        rng = np.random.default_rng(9)
        magnitudes = 10.0 ** rng.uniform(-3.0, 15.0, 100_000)
        points = np.concatenate((magnitudes, -magnitudes, [1e15, -1e15]))
        for a in self.SETTINGS:
            self.assert_matches(a, points)

    def test_phase_range_edges(self):
        # At setting π/2 the phase is s itself. Each point alone, in range
        # (-2π, 4π) or not, decides the path of its block by itself.
        edges = np.array([-TWO_PI, 0.0, TWO_PI, 2.0 * TWO_PI])
        steps = [edges]
        for _ in range(3):
            steps = [np.nextafter(steps[0], -math.inf), *steps, np.nextafter(steps[-1], math.inf)]
        points = np.concatenate(steps)
        for a in (HALF_PI, *self.SETTINGS):
            shifted = points + (a - HALF_PI)
            self.assert_matches(a, shifted)
            for x in shifted:
                self.assert_matches(a, [x])

    def test_blocks_mixing_in_and_out_of_range(self, monkeypatch):
        rng = np.random.default_rng(11)
        inside = rng.uniform(-TWO_PI, 2.0 * TWO_PI, 1000)
        for outside in (-TWO_PI, 2.0 * TWO_PI, -3.0 * math.pi, 5.0 * math.pi, 100.0, -1e6, 1e15):
            for at in (0, 500, 999):
                block = inside.copy()
                block[at] = outside
                self.assert_matches(HALF_PI, block)
        self.assert_matches(HALF_PI, inside)
        # Blocks in range never reach np.fmod.
        monkeypatch.setattr(np, "fmod", None)
        self.assert_matches(HALF_PI, inside)
        for setting in (0.0, 3.0, np.nextafter(TWO_PI, 0.0)):
            self.assert_matches(setting, rng.uniform(0.0, TWO_PI, 1000))

    def test_a_million_random_angles(self):
        points = np.random.default_rng(10).uniform(-20.0, 20.0, 1_000_000)
        for a in (0.0, 0.7, -3.0):
            self.assert_matches(a, points)

    def test_64_ulps_around_every_flip_of_random_settings(self):
        settings = np.random.default_rng(12).uniform(-TWO_PI, 2.0 * TWO_PI, 1000)
        flips = reference_flips(settings)
        probes = float_of(flips[:, :, None] + np.arange(-64, 65))
        for a, around in zip(settings.tolist(), probes):
            self.assert_matches(a, around.ravel())  # one block over all six flips
        for a, around in zip(settings[:100].tolist(), probes):
            for block in around:  # one block per flip
                self.assert_matches(a, block)

    def test_zero_subnormal_and_just_below_the_period(self):
        points = [0.0, 5e-324, np.nextafter(TWO_PI, 0.0)]
        settings = np.random.default_rng(13).uniform(-TWO_PI, 2.0 * TWO_PI, 1000)
        for a in (*self.SETTINGS, -HALF_PI, *settings.tolist()):
            self.assert_matches(a, points)
            for x in points:
                self.assert_matches(a, [x])


def plus_at(t: float) -> bool:
    """The spin rule at one phase t in (-2π, 2·2π), reduced by hand as np.mod
    reduces it there: t - 2π is exact from 2π on (Sterbenz), and a negative
    phase gains one rounded period. Side 1 reads +1 below π - BOUNDARY_EPS
    and from 2π - BOUNDARY_EPS on."""
    if t >= TWO_PI:
        t -= TWO_PI
    if t < 0.0:
        t += TWO_PI
    return t < math.pi - BOUNDARY_EPS or t >= TWO_PI - BOUNDARY_EPS


class TestPhaseRule:
    """The vectorized rule on normalized phases against the scalar reduction."""

    def test_phase_flips_are_the_least_flipping_floats(self):
        # Starting at +1 just above -2π, the k-th flip is the least float at
        # which the rule takes its k-th new value: the float below it still
        # reads the old one.
        assert list(PHASE_FLIPS) == sorted(PHASE_FLIPS) and len(PHASE_FLIPS) == 6
        assert plus_at(np.nextafter(-TWO_PI, math.inf))
        for k, flip in enumerate(PHASE_FLIPS):
            assert plus_at(flip) is bool(k % 2)
            assert plus_at(float(np.nextafter(flip, -math.inf))) is not bool(k % 2)

    def test_agrees_around_every_flip_and_on_random_phases(self):
        around = float_of(key_of(np.array(PHASE_FLIPS))[:, None] + np.arange(-2000, 2001)).ravel()
        phases = np.random.default_rng(14).uniform(-TWO_PI, 2.0 * TWO_PI, 200_000)
        for t in (around, phases):
            t = t[(-TWO_PI < t) & (t < 2.0 * TWO_PI)]
            assert _reads_plus(normalize(t)).tolist() == [plus_at(x) for x in t.tolist()]


def key_of(x) -> np.ndarray:
    """int64 keys in the order of the float64s x, -0.0 just below 0.0:
    consecutive floats have consecutive keys."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, -1 - (bits & np.iinfo(np.int64).max), bits)


def float_of(keys) -> np.ndarray:
    """The float64s of int64 keys; the inverse of key_of."""
    keys = np.asarray(keys, dtype=np.int64)
    return np.where(keys < 0, (-1 - keys) | np.iinfo(np.int64).min, keys).view(np.float64)


def reference_flips(settings: np.ndarray) -> np.ndarray:
    """Keys of the floats s where mod_spin_values flips, six per setting,
    found by bisection on mod_spin_values' own rule: one flip lies within
    1e-13 of each of a - π/2 + k·π - BOUNDARY_EPS, k = -2..3."""
    c = settings[:, None] - HALF_PI

    def plus(keys):
        t = np.mod(float_of(keys) - c, TWO_PI)
        return (t < math.pi - BOUNDARY_EPS) | (t >= TWO_PI - BOUNDARY_EPS)

    near = c + (np.arange(-2, 4) * math.pi - BOUNDARY_EPS)
    lo, hi = key_of(near - 1e-13), key_of(near + 1e-13)
    before = plus(lo)
    assert (plus(hi) != before).all()
    while (hi - lo > 1).any():
        mid = lo + (hi - lo) // 2
        flipped = plus(mid) != before
        hi, lo = np.where(flipped, mid, hi), np.where(flipped, lo, mid)
    return hi


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
