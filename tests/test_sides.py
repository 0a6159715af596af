"""The weighted side is decided in one place, `circle.on_side`, every
integer argument is checked by one rule, `circle.integer`, and every real
number by one rule, `circle.real`.

Weight side 2 is weight side 1 with the two sides exchanged, at every site
that takes a side, and every entry point that takes a side rejects anything
but 1 and 2. Every entry point that takes a count, size, seed, offset or
grid takes numpy integers and refuses bools, floats and strings with
ValueError, before it draws anything. Every entry point that takes a
setting, scale, step or file number takes numpy numbers, with the output of
the same float, and refuses bools, strings, NaN, ±inf and integers too large
for a float with ValueError, before it draws anything.
"""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import circle, lcmeasure, protocol, uniqueness
from lcsim.lcmeasure import COSINE_DEFAULTS
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
    with pytest.raises(ValueError, match="side must be an integer of at least 1 and at most 2"):
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
    with pytest.raises(ValueError, match="side must be an integer of at least 1 and at most 2"):
        SIDE_ENTRY_POINTS[entry](side)


def test_integer_returns_a_python_int_or_refuses():
    for value in (7, np.int64(7), np.uint8(7), np.array(7)):
        out = circle.integer(value, "count")
        assert out == 7 and type(out) is int
    assert circle.integer(2**70, "count") == 2**70
    for value in (True, False, np.True_, 7.0, np.float64(7.0), "7", None, [7]):
        with pytest.raises(ValueError, match="count must be an integer of at least 0, got "):
            circle.integer(value, "count")
    with pytest.raises(ValueError, match="count must be an integer of at least 1, got 0"):
        circle.integer(0, "count", 1)
    with pytest.raises(ValueError, match="count must be an integer of at least 1 and at most 3, got 4"):
        circle.integer(4, "count", 1, 3)


def _sizes_at(build, position: int):
    """(v, rng) -> build(rng, n1, n2, m1, m2), with v the size at `position` and 3 the others."""
    return lambda v, rng: build(rng, *(v if i == position else 3 for i in range(4)))


#: Each entry point with `v` in one integer argument and valid ones elsewhere;
#: 8 is valid for every one of them.
INTEGER_ENTRY_POINTS = {
    **{
        f"ExperimentConfig.{field}": lambda v, rng, field=field: protocol.ExperimentConfig(
            **{"n": 1, "a": 0.0, "b": 0.0, field: v}
        )
        for field in ("n", "offset", "source_seed", "station1_seed", "station2_seed")
    },
    "StationConfig.seed": lambda v, rng: protocol.StationConfig(side=1, setting=0.0, seed=v),
    "StationConfig.offset": lambda v, rng: protocol.StationConfig(side=1, setting=0.0, offset=v),
    "chsh_estimate.base_seed": lambda v, rng: protocol.chsh_estimate(100, base_seed=v),
    "run_source.n": lambda v, rng: protocol.run_source(v, 1),
    "run_source.seed": lambda v, rng: protocol.run_source(1, v),
    "run_source.start": lambda v, rng: protocol.run_source(1, 1, v),
    **{
        f"{build.__name__}.{size}": _sizes_at(build, position)
        for build in (
            lcmeasure.random_trivial_measure,
            lcmeasure.random_trivial_family,
            lcmeasure.random_nontrivial_measure,
            lambda rng, *sizes: lcmeasure.random_trivial_sweep(rng, 2, *sizes),
        )
        for position, size in enumerate(("n1", "n2", "m1", "m2"))
    },
    "random_trivial_sweep.count": lambda v, rng: lcmeasure.random_trivial_sweep(rng, v, 3, 3, 2, 2),
    "observable_sweep.trials": lambda v, rng: lcmeasure.observable_sweep(
        rng, lcmeasure.cosine_diagonal_measure(4, 0.0, 0.0), v
    ),
    "random_stochastic.dim1": lambda v, rng: lcmeasure.LocalMarkovOperator.random_stochastic(rng, v, 2),
    "random_permutation.dim2": lambda v, rng: lcmeasure.LocalMarkovOperator.random_permutation(rng, 2, v),
    "cosine_diagonal_measure.grid": lambda v, rng: lcmeasure.cosine_diagonal_measure(v, 0.0, 0.0),
    "cosine_diagonal_measure.m1": lambda v, rng: lcmeasure.cosine_diagonal_measure(8, 0.0, 0.0, m1=v),
    "verify_reproduction.grid": lambda v, rng: uniqueness.verify_reproduction(
        CandidateModel.one_sided("uniform"), grid=v, reconstruct=False
    ),
}


@pytest.mark.parametrize("value", [True, 2.0, "4"], ids=["bool", "float", "string"])
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_every_integer_entry_point_refuses_non_integers_before_any_draw(entry, value):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="must be an integer of at least"):
        INTEGER_ENTRY_POINTS[entry](value, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_every_integer_entry_point_takes_numpy_integers(entry):
    INTEGER_ENTRY_POINTS[entry](np.int64(8), np.random.default_rng(0))


def integer_checks(source: str) -> list[str]:
    """The top-level definition around each integer conversion or type test
    of `source`: each reference to operator.index, np.integer or
    numbers.Integral, and each isinstance(..., int); "<module>" outside any."""
    names = {("operator", "index"), ("np", "integer"), ("numpy", "integer"), ("numbers", "Integral")}
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and (getattr(node.value, "id", None), node.attr) in names:
                found.append(owner)
            elif isinstance(node, ast.ImportFrom) and any((node.module, a.name) in names for a in node.names):
                found.append(owner)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(isinstance(t, ast.Name) and t.id == "int" for t in types):
                    found.append(owner)
    return found


def test_integer_is_the_one_integer_rule():
    package = Path(circle.__file__).parent
    found = {p.stem: integer_checks(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert {module: owners for module, owners in found.items() if owners} == {"circle": ["integer"]}


def test_integer_check_scanner():
    source = """
import operator
from operator import index
def a(x): return operator.index(x)
def b(x): return isinstance(x, (bool, int))
def c(x): return isinstance(x, np.integer)
def d(x): return isinstance(x, numbers.Integral)
def e(x): return isinstance(x, bool) or type(x) is int or [x].index(x) or x.integer
from .circle import integer
"""
    assert integer_checks(source) == ["<module>", "a", "b", "c", "d"]


def test_real_returns_a_python_float_or_refuses():
    for value in (0.5, np.float64(0.5), np.float32(0.5), 1, np.int64(1), np.uint8(1), 2**70):
        out = circle.real(value, "scale")
        assert out == float(value) and type(out) is float
    for value in (True, np.True_, "0.5", None, [0.5], np.array(0.5), math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValueError, match=r"scale must be a finite number, got "):
            circle.real(value, "scale")


def test_reals_applies_the_rule_to_every_entry():
    out = circle.reals([[1, 0.5], [np.float64(0.25), np.int64(2)]], "K1")
    assert out.dtype == float and out.tolist() == [[1.0, 0.5], [0.25, 2.0]]
    for bad in (True, "0.5", None, [0.5], math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="every entry of K1 must be a finite number"):
            circle.reals([[1.0, 0.5], [0.25, bad]], "K1")


#: A value that every entry of REAL_ENTRY_POINTS takes: a setting, a scale,
#: a differencing step within 1e-2 and a matrix entry.
REAL = 2.0**-7


def _document(**fields):
    """A unit-mass 1 × 2 measure document with one K1 row and two K2 rows,
    REAL and 1 - REAL on its source; `fields` replace its matrices."""
    doc = {"n1": 1, "n2": 2, "m1": 1, "m2": 1, "PS": [[REAL, 1.0 - REAL]], "K1": [[1.0]], "K2": [[1.0], [1.0]]}
    return {**doc, **fields}


def _settings_at(position: int, v) -> tuple:
    """TSIRELSON_SETTINGS with `v` at `position`."""
    return tuple(v if i == position else setting for i, setting in enumerate(TSIRELSON_SETTINGS))


UNIFORM = Profile("uniform")

#: Each entry point with `v` in one real argument and valid ones elsewhere;
#: REAL is valid for every one of them.
REAL_ENTRY_POINTS = {
    "ExperimentConfig.a": lambda v, rng: protocol.ExperimentConfig(n=1, a=v, b=0.0),
    "ExperimentConfig.b": lambda v, rng: protocol.ExperimentConfig(n=1, a=0.0, b=v),
    "StationConfig.setting": lambda v, rng: protocol.StationConfig(side=1, setting=v),
    **{
        f"chsh_estimate.{name}": lambda v, rng, i=i: protocol.chsh_estimate(100, _settings_at(i, v))
        for i, name in enumerate(("a", "a2", "b", "b2"))
    },
    "spin_values.setting": lambda v, rng: circle.spin_values(1, v, [0.0, 1.0]),
    "CandidateModel.scale": lambda v, rng: CandidateModel(rho=UNIFORM, p1=UNIFORM, p2=UNIFORM, scale=v),
    "cosine_diagonal_measure.a": lambda v, rng: lcmeasure.cosine_diagonal_measure(8, v, 0.0),
    "cosine_diagonal_measure.b": lambda v, rng: lcmeasure.cosine_diagonal_measure(8, 0.0, v, weight_side=2),
    **{
        f"cosine_diagonal_family.{name}": lambda v, rng, i=i: lcmeasure.cosine_diagonal_family(
            8, _settings_at(i, v), 8, 8, 1
        )
        for i, name in enumerate(("a", "a2", "b", "b2"))
    },
    "check_cosine_file.a": lambda v, rng: lcmeasure.check_cosine_file(
        lcmeasure.cosine_diagonal_measure(8, REAL, COSINE_DEFAULTS["b"]),
        {"family": lcmeasure.COSINE_FAMILY, "grid": 8, "a": v},
    ),
    "reconstruct_profile.h": lambda v, rng: uniqueness.reconstruct_profile(ABS_COS, h=v),
    "verify_reproduction.h": lambda v, rng: uniqueness.verify_reproduction(ABS_COS, grid=8, h=v),
    "Profile.from_samples": lambda v, rng: Profile.from_samples([v, 1.0, 0.5]),
    "measure_from_dict.PS": lambda v, rng: lcmeasure.measure_from_dict(_document(PS=[[v, 1.0 - REAL]])),
    "measure_from_dict.PS-support": lambda v, rng: lcmeasure.measure_from_dict(
        _document(PS={"rows": [0, 0], "cols": [0, 1], "weights": [v, 1.0 - REAL]})
    ),
    "measure_from_dict.K1": lambda v, rng: lcmeasure.measure_from_dict(_document(K1=[[v]])),
    "measure_from_dict.K2": lambda v, rng: lcmeasure.measure_from_dict(_document(K2=[[1.0], [v]])),
}


@pytest.mark.parametrize(
    "value", [True, "0.5", math.nan, math.inf, 10**400], ids=["bool", "string", "nan", "inf", "huge-integer"]
)
@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
def test_every_real_entry_point_refuses_non_numbers_before_any_draw(entry, value):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="must be a finite number"):
        REAL_ENTRY_POINTS[entry](value, rng)
    assert rng.bit_generator.state == state


def bits(x):
    """`x` as nested tuples of type names and bytes: equal only for outputs
    that are equal bit for bit, numbers of equal value but other types apart."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__, *(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return type(x).__name__, *map(bits, x)
    if isinstance(x, dict):
        return tuple((key, bits(value)) for key, value in x.items())
    return type(x).__name__, x.hex() if isinstance(x, float) else repr(x)


@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
def test_every_real_entry_point_gives_a_numpy_float_the_output_of_its_float(entry):
    rng = np.random.default_rng(0)
    assert bits(REAL_ENTRY_POINTS[entry](np.float64(REAL), rng)) == bits(REAL_ENTRY_POINTS[entry](REAL, rng))


def real_checks(source: str) -> list[str]:
    """The top-level definition around each real-number type test or float
    overflow catch of `source`: each reference to numbers.Real and each
    handler that catches OverflowError; "<module>" outside any."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and (getattr(node.value, "id", None), node.attr) == ("numbers", "Real"):
                found.append(owner)
            elif isinstance(node, ast.ImportFrom) and node.module == "numbers" and "Real" in {a.name for a in node.names}:
                found.append(owner)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(isinstance(t, ast.Name) and t.id == "OverflowError" for t in types):
                    found.append(owner)
    return found


def test_real_is_the_one_real_rule():
    package = Path(circle.__file__).parent
    found = {p.stem: real_checks(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert {module: owners for module, owners in found.items() if owners} == {"circle": ["real", "reals", "_is_real"]}


def test_real_check_scanner():
    source = """
from numbers import Real
def a(x): return isinstance(x, numbers.Real)
def b(x):
    try:
        return float(x)
    except (TypeError, OverflowError):
        return None
def c(x):
    try:
        return float(x)
    except OverflowError:
        return None
def d(x): return isinstance(x, (float, numbers.Integral)) or x.Real or "numbers.Real"
def e(x):
    try:
        return float(x)
    except Exception:
        raise OverflowError
"""
    assert real_checks(source) == ["<module>", "a", "b", "c"]
