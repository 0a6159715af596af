"""The weighted side is decided in one place, `circle.on_side`.

Weight side 2 is weight side 1 with the two sides exchanged, at every site
that takes a side, and every entry point that takes a side rejects anything
but 1 and 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import circle, lcmeasure, protocol, uniqueness
from lcsim.models import BUILTINS, TSIRELSON_SETTINGS, CandidateModel, Profile

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def mirrored(profile: Profile) -> Profile:
    """x -> profile(-x); every builtin is even."""
    if profile.kind != "samples":
        return profile
    return Profile.from_samples(np.roll(profile.samples[::-1], 1))


def test_on_side_is_its_own_inverse():
    assert circle.on_side(1, "x", "y") == ("x", "y")
    assert circle.on_side(2, "x", "y") == ("y", "x")
    for side in (1, 2):
        assert circle.on_side(side, *circle.on_side(side, "x", "y")) == ("x", "y")


@pytest.mark.parametrize(
    "side", [True, False, 1.0, 2.0, "1", None, np.float64(1.0), np.True_],
    ids=["true", "false", "1.0", "2.0", "string", "none", "numpy-float", "numpy-bool"],
)
def test_on_side_takes_only_the_integers_1_and_2(side):
    # True == 1 and 1.0 == 1, but neither is a side.
    with pytest.raises(ValueError, match="side must be 1 or 2"):
        circle.on_side(side, "x", "y")


def test_on_side_takes_numpy_integers():
    assert circle.on_side(np.int64(2), "x", "y") == ("y", "x")
    assert circle.on_side(np.int8(1), "x", "y") == ("x", "y")


class TestWeightSideTwoIsSideOneSwapped:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin_models(self, name):
        one, two = CandidateModel.one_sided(name, 1), CandidateModel.one_sided(name, 2)
        assert (two.rho, two.p1, two.p2, two.scale) == (one.rho, one.p2, one.p1, one.scale)

    @pytest.mark.parametrize("name", ["abs-cos", "cos-squared"], ids=["abs_cos", "cos_squared"])
    def test_abs_cos_and_cos_squared(self, name):
        one, two = CandidateModel.one_sided(name, 1), CandidateModel.one_sided(name, 2)
        assert (two.p1, two.p2) == (one.p2, one.p1)
        assert one.p1 != one.p2

    @settings(max_examples=40, deadline=None)
    @given(a=angles, b=angles, grid=st.integers(2, 40), m1=st.integers(1, 5), m2=st.integers(1, 5))
    def test_cosine_diagonal_measure(self, a, b, grid, m1, m2):
        two = lcmeasure.cosine_diagonal_measure(grid, a, b, m1, m2, 2)
        one = lcmeasure.cosine_diagonal_measure(grid, b, a, m2, m1, 1)
        assert np.array_equal(two.PS, one.PS.T)
        assert np.array_equal(two.K1, one.K2)
        assert np.array_equal(two.K2, one.K1)

    @pytest.mark.parametrize(
        "mode, rule",
        [("coincidence", "acceptance"), ("weighted", "always-detect-weighted"), ("standard", "always-detect")],
    )
    def test_station_configs(self, mode, rule):
        one = protocol.ExperimentConfig(n=10, a=0.3, b=1.9, mode=mode, weight_side=1).station_configs()
        two = protocol.ExperimentConfig(n=10, a=0.3, b=1.9, mode=mode, weight_side=2).station_configs()
        assert (one[0].mode, one[1].mode) == (rule, "always-detect")
        assert (two[0].mode, two[1].mode) == (one[1].mode, one[0].mode)
        for st1, st2 in zip(one, two):
            assert (st1.side, st1.setting, st1.seed, st1.offset) == (st2.side, st2.setting, st2.seed, st2.offset)

    @pytest.mark.parametrize(
        "model",
        [
            CandidateModel.one_sided("abs-cos"),
            CandidateModel.one_sided("cos-squared"),
            CandidateModel.one_sided("uniform"),
            CandidateModel(
                rho=Profile("uniform"),
                p1=Profile.from_samples([0.0, 1.0, 3.0, 2.0]),
                p2=Profile.from_samples([1.0, 0.5, 1.0, 0.25]),
            ),
        ],
        ids=["abs-cos", "cos-squared", "uniform", "sampled"],
    )
    def test_necessary_conditions(self, model):
        # Side 2's zero sits at +π/2 where side 1's sits at -π/2, so the
        # profiles are mirrored as they change sides; the builtins are even.
        swapped = CandidateModel(rho=model.rho, p1=mirrored(model.p2), p2=mirrored(model.p1), scale=model.scale)
        one = uniqueness.check_necessary_conditions(model, weight_side=1)
        two = uniqueness.check_necessary_conditions(swapped, weight_side=2)
        assert [c.holds for c in one] == [c.holds for c in two]
        exact = "samples" not in {p.kind for p in (model.rho, model.p1, model.p2)}
        assert [c.residual for c in two] == [c.residual if exact else pytest.approx(c.residual, abs=1e-15) for c in one]
        assert [c.name for c in two] == ["p1(pi/2)*p2(-pi/2) = 0", "rho constant", "p1 constant", "p2(pi/2) = 0"]

    @settings(max_examples=40, deadline=None)
    @given(setting=angles, s=st.lists(angles, min_size=1, max_size=20))
    def test_spin_values(self, setting, s):
        assert np.array_equal(circle.spin_values(2, setting, s), -circle.spin_values(1, setting, s))


ABS_COS = CandidateModel.one_sided("abs-cos")

SIDE_ENTRY_POINTS = {
    "on_side": lambda side: circle.on_side(side, 1, 2),
    "spin_values": lambda side: circle.spin_values(side, 0.0, [0.0]),
    "one_sided": lambda side: CandidateModel.one_sided("uniform", side),
    "abs_cos": lambda side: CandidateModel.one_sided("abs-cos", side),
    "cos_squared": lambda side: CandidateModel.one_sided("cos-squared", side),
    "cosine_diagonal_measure": lambda side: lcmeasure.cosine_diagonal_measure(8, 0.0, 0.0, weight_side=side),
    "cosine_diagonal_family": lambda side: lcmeasure.cosine_diagonal_family(8, TSIRELSON_SETTINGS, 8, 8, side),
    "StationConfig": lambda side: protocol.StationConfig(side=side, setting=0.0),
    "ExperimentConfig": lambda side: protocol.ExperimentConfig(n=1, a=0.0, b=0.0, weight_side=side),
    "check_necessary_conditions": lambda side: uniqueness.check_necessary_conditions(ABS_COS, weight_side=side),
    "verify_reproduction": lambda side: uniqueness.verify_reproduction(
        CandidateModel.one_sided("uniform"), grid=8, weight_side=side, reconstruct=False
    ),
}


@pytest.mark.parametrize("side", [0, 3])
@pytest.mark.parametrize("entry", sorted(SIDE_ENTRY_POINTS))
def test_every_side_entry_point_rejects_other_sides(entry, side):
    with pytest.raises(ValueError, match="side must be 1 or 2"):
        SIDE_ENTRY_POINTS[entry](side)
