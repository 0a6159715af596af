import ast
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsim import cli, lcmeasure
from lcsim.circle import TWO_PI, spin_values
from lcsim.lcmeasure import (
    DiscreteLCMeasure,
    LocalMarkovOperator,
    apply_local_markov,
    check_cosine_file,
    chsh_discrete,
    cosine_diagonal_family,
    cosine_diagonal_measure,
    diagonal_grid,
    discrete_correlation,
    is_trivial,
    load_measure,
    local_mass_functions,
    measure_from_dict,
    measure_to_dict,
    random_nontrivial_measure,
    random_observables,
    random_trivial_family,
    random_trivial_measure,
    rescale,
    save_measure,
    stochastic_matrix,
)
from lcsim.models import TSIRELSON_SETTINGS, chsh, chsh_pairs

RNG = np.random.default_rng(20240811)

#: transport_digest() as the dense einsum computes it, permutations
#: included; the index form of permutations must reproduce it bit for bit.
TRANSPORT_DIGEST = "7dc087ae8feefb336d23b43f94cb827ffd980f4561f1004ffe034c5c586aa772"


#: The support of the grid-4 cosine source, the diagonal at 1/4, and
#: malformed variants of it with the ValueError each must raise.
GOOD_SUPPORT = {"rows": [0, 1, 2, 3], "cols": [0, 1, 2, 3], "weights": [0.25] * 4}
WEIGHTS_ARE_REAL = "every entry of PS support weights must be a finite number"
MALFORMED_SUPPORTS = {
    "row-out-of-range": ({**GOOD_SUPPORT, "rows": [0, 1, 2, 4]}, "rows must be integers in"),
    "col-out-of-range": ({**GOOD_SUPPORT, "cols": [4, 1, 2, 3]}, "cols must be integers in"),
    "negative-row": ({**GOOD_SUPPORT, "rows": [-1, 1, 2, 3]}, "rows must be integers in"),
    "negative-col": ({**GOOD_SUPPORT, "cols": [0, 1, -2, 3]}, "cols must be integers in"),
    "repeated-pair": ({**GOOD_SUPPORT, "rows": [0, 0, 2, 3], "cols": [0, 0, 2, 3]}, "twice"),
    "short-weights": ({**GOOD_SUPPORT, "weights": [0.25] * 3}, "equal lengths"),
    "long-rows": ({**GOOD_SUPPORT, "rows": [0, 1, 2, 3, 0]}, "equal lengths"),
    "missing-key": ({"rows": [0, 1, 2, 3], "cols": [0, 1, 2, 3]}, "exactly the keys"),
    "extra-key": ({**GOOD_SUPPORT, "shape": [4, 4]}, "exactly the keys"),
    "bool-index": ({**GOOD_SUPPORT, "rows": [0, True, 2, 3]}, "rows must be integers"),
    "float-index": ({**GOOD_SUPPORT, "cols": [0, 1.0, 2, 3]}, "cols must be integers"),
    "string-index": ({**GOOD_SUPPORT, "rows": [0, "1", 2, 3]}, "rows must be integers"),
    "index-not-a-list": ({**GOOD_SUPPORT, "rows": 0}, "must be lists"),
    "string-weight": ({**GOOD_SUPPORT, "weights": [0.25, "0.25", 0.25, 0.25]}, WEIGHTS_ARE_REAL),
    "bool-weight": ({**GOOD_SUPPORT, "weights": [0.25, 0.25, 0.25, True]}, WEIGHTS_ARE_REAL),
    "huge-integer-weight": ({**GOOD_SUPPORT, "weights": [0.25, 0.25, 0.25, 10**400]}, WEIGHTS_ARE_REAL),
    "negative-weight": ({**GOOD_SUPPORT, "weights": [0.5, 0.25, 0.5, -0.25]}, "finite and nonnegative"),
    "nan-weight": ({**GOOD_SUPPORT, "weights": [0.25, 0.25, 0.25, math.nan]}, WEIGHTS_ARE_REAL),
    "inf-weight": ({**GOOD_SUPPORT, "weights": [0.25, 0.25, 0.25, math.inf]}, WEIGHTS_ARE_REAL),
    "nested-weights": ({**GOOD_SUPPORT, "weights": [[0.25]] * 4}, "weights must be a list of numbers"),
    "mass-below-one": ({**GOOD_SUPPORT, "weights": [0.25, 0.25, 0.25, 0.0]}, "must sum to 1"),
    "mass-above-one": ({**GOOD_SUPPORT, "weights": [0.25, 0.25, 0.25, 0.5]}, "must sum to 1"),
}


#: Measure documents with finite entries whose kernel row masses, largest
#: row-mass product or source sum overflow a float, with the ValueError each
#: must raise. Each kernel case once loaded, and `trivial --measure` printed
#: Infinity in its JSON.
OVERFLOWING_DOCUMENTS = {
    "kernel-row-mass": (
        {"n1": 1, "n2": 1, "m1": 2, "m2": 1, "PS": [[1.0]], "K1": [[1e308, 1e308]], "K2": [[1.0]]},
        "K1 must be finite and nonnegative",
    ),
    "row-mass-product": (
        {"n1": 1, "n2": 1, "m1": 1, "m2": 1, "PS": [[1.0]], "K1": [[1e200]], "K2": [[1e200]]},
        "must have a finite product",
    ),
    "source-sum": (
        {"n1": 1, "n2": 2, "m1": 1, "m2": 1, "PS": [[1e308, 1e308]], "K1": [[1.0]], "K2": [[1.0], [1.0]]},
        "source matrix must sum to 1",
    ),
}


def malformed_support_document(support: dict) -> dict:
    """The grid-4 cosine measure's document with `support` as its source."""
    return {**measure_to_dict(cosine_diagonal_measure(4, 0.0, 0.0)), "PS": support}


def small_measure(rng=None, trivial=True):
    rng = rng or np.random.default_rng(3)
    if trivial:
        return random_trivial_measure(rng, 6, 5, 3, 4)
    return random_nontrivial_measure(rng, 6, 5, 3, 4)


def induced_full_measure(m: DiscreteLCMeasure) -> np.ndarray:
    """Entrywise joint measure on S1 × S2 × M1 × M2 (the defining product)."""
    return np.einsum("st,sl,tm->stlm", m.PS, m.K1, m.K2)


class TestConstruction:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            DiscreteLCMeasure(PS=np.array([[1.5, -0.5]]), K1=np.ones((1, 1)), K2=np.ones((2, 1)))

    def test_source_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteLCMeasure(PS=np.full((2, 2), 0.3), K1=np.ones((2, 2)), K2=np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiscreteLCMeasure(PS=np.full((2, 2), 0.25), K1=np.ones((3, 2)), K2=np.ones((2, 2)))

    @pytest.mark.parametrize(
        "bad,message",
        [(np.ones(2), "K1 must be a matrix"), (np.array([[1.0], [np.inf]]), "K1 must be finite"),
         (np.array([[1.0], [np.nan]]), "K1 must be finite"), (np.array([[1.0], [-1.0]]), "nonnegative")],
    )
    def test_every_matrix_is_checked(self, bad, message):
        with pytest.raises(ValueError, match=message):
            DiscreteLCMeasure(PS=np.full((2, 2), 0.25), K1=bad, K2=np.ones((2, 2)))
        with pytest.raises(ValueError, match=message.replace("K1", "T2")):
            LocalMarkovOperator(np.eye(2), bad)

    @pytest.mark.parametrize("doc, message", OVERFLOWING_DOCUMENTS.values(), ids=OVERFLOWING_DOCUMENTS.keys())
    def test_overflowing_masses_are_refused(self, doc, message):
        # Warnings are errors here, so a numpy overflow warning fails the test too.
        with pytest.raises(ValueError, match=message):
            DiscreteLCMeasure(PS=doc["PS"], K1=doc["K1"], K2=doc["K2"])
        with pytest.raises(ValueError, match=message):
            measure_from_dict(doc)

    def test_operators_must_be_square(self):
        with pytest.raises(ValueError, match="T1 must be square"):
            LocalMarkovOperator(np.ones((2, 3)), np.eye(2))

    def test_matrices_are_readonly_copies(self):
        ps = np.full((2, 2), 0.25)
        m = DiscreteLCMeasure(PS=ps, K1=np.ones((2, 1), dtype=int), K2=np.ones((2, 2)))
        assert m.PS is not ps and not m.PS.flags.writeable and m.K1.dtype == float
        op = LocalMarkovOperator(np.eye(2), np.eye(3))
        assert not op.T1.flags.writeable and not op.T2.flags.writeable


class TestLocalMassFunctions:
    def test_stochastic_rows_give_unit_mass(self):
        m = DiscreteLCMeasure(
            PS=np.full((3, 3), 1 / 9),
            K1=stochastic_matrix(RNG, 3, 4),
            K2=stochastic_matrix(RNG, 3, 2),
        )
        p1, p2 = local_mass_functions(m)
        assert np.allclose(p1, 1.0)
        assert np.allclose(p2, 1.0)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (512, 512)])
    def test_stochastic_rows_are_normalized_gamma_one_draws(self, shape):
        # Reference: Dirichlet(1) rows as Gamma(1) draws over their row sums;
        # the random stream, and so every seeded result, must not move.
        ref_rng, rng, into_rng = (np.random.default_rng(8) for _ in range(3))
        g = ref_rng.gamma(1.0, size=shape)
        expected = (g / g.sum(axis=1, keepdims=True)).tobytes()
        assert stochastic_matrix(rng, *shape).tobytes() == expected
        # Drawn in place into a view of a larger block: the same bits, only
        # the view written, and the view itself returned.
        block = np.zeros(shape[0] * shape[1] + 3)
        into = block[2:-1].reshape(shape)
        assert stochastic_matrix(into_rng, *shape, into=into) is into
        assert into.tobytes() == expected and not block[:2].any() and not block[-1:].any()
        assert rng.random() == into_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 64), (7, 129)])
    def test_random_source_is_the_gamma_one_stream(self, shape):
        # Standard exponential draws are numpy's Gamma(1) draws: the same
        # bits and the same generator state afterwards.
        for seed in range(20):
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            g = ref_rng.gamma(1.0, size=shape)
            g /= g.sum()
            assert lcmeasure.random_source(rng, *shape).tobytes() == g.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_scaling_is_linear(self):
        k = stochastic_matrix(RNG, 3, 4)
        m = DiscreteLCMeasure(PS=np.full((3, 3), 1 / 9), K1=2.0 * k, K2=np.ones((3, 2)))
        p1, _ = local_mass_functions(m)
        assert np.allclose(p1, 2.0)

    def test_zero_row_gives_zero_mass(self):
        k = np.ones((3, 2))
        k[1] = 0.0
        m = DiscreteLCMeasure(PS=np.full((3, 3), 1 / 9), K1=k, K2=np.ones((3, 2)))
        p1, _ = local_mass_functions(m)
        assert p1[1] == 0.0


class TestTriviality:
    def test_markov_kernels_are_trivial_with_unit_constant(self):
        m = DiscreteLCMeasure(
            PS=np.full((4, 4), 1 / 16),
            K1=stochastic_matrix(RNG, 4, 3),
            K2=stochastic_matrix(RNG, 4, 3),
        )
        verdict = is_trivial(m)
        assert verdict.trivial
        assert verdict.c == pytest.approx(1.0, abs=1e-12)

    def test_constant_split_reports_c(self):
        m = DiscreteLCMeasure(
            PS=np.full((4, 4), 1 / 16),
            K1=2.0 * stochastic_matrix(RNG, 4, 3),
            K2=0.5 * stochastic_matrix(RNG, 4, 3),
        )
        verdict = is_trivial(m)
        assert verdict.trivial
        assert verdict.c == pytest.approx(2.0, abs=1e-12)

    def test_varying_mass_is_nontrivial(self):
        k1 = stochastic_matrix(RNG, 4, 3) * np.array([1.0, 2.0, 1.0, 1.0])[:, None]
        m = DiscreteLCMeasure(PS=np.full((4, 4), 1 / 16), K1=k1, K2=stochastic_matrix(RNG, 4, 3))
        verdict = is_trivial(m)
        assert not verdict.trivial
        assert verdict.max_deviation == pytest.approx(1.0, abs=1e-9)

    def test_support_threshold_matters(self):
        # Mass off the diagonal is below the support threshold, so only the
        # diagonal constraint p1(s)p2(s) = 1 is enforced.
        ps = np.diag([0.5, 0.5 - 2e-13]) + np.full((2, 2), 1e-13)
        ps = ps / ps.sum()
        k1 = np.array([[2.0], [0.5]])
        k2 = np.array([[0.5], [2.0]])
        m = DiscreteLCMeasure(PS=ps, K1=k1, K2=k2)
        verdict = is_trivial(m)
        assert verdict.trivial
        assert verdict.c is None  # pointwise triviality without a constant split

    @pytest.mark.parametrize("block", [1, 7, 5 * 64, 2**40])
    def test_verdict_does_not_depend_on_the_block_size(self, monkeypatch, block):
        rng = np.random.default_rng(11)
        measures = [
            random_trivial_measure(rng, 64, 64, 8, 8),
            random_nontrivial_measure(rng, 64, 64, 8, 8),
            apply_local_markov(random_trivial_measure(rng, 9, 13, 2, 3), LocalMarkovOperator.random_stochastic(rng, 18, 39)),
            cosine_diagonal_measure(512, 0.0, math.pi / 4),
            DiscreteLCMeasure(PS=np.diag([0.5, 0.5 - 2e-13]) + 1e-13, K1=[[2.0], [0.5]], K2=[[0.5], [2.0]]),
        ]
        default = [is_trivial(m) for m in measures]
        monkeypatch.setattr(lcmeasure, "TRIVIAL_BLOCK", block)
        for m, verdict in zip(measures, default):
            again = is_trivial(m)
            assert again == verdict
            assert struct.pack("<d", again.max_deviation) == struct.pack("<d", verdict.max_deviation)

    def test_nan_deviation_propagates_from_any_block(self, monkeypatch):
        # p2 overflows to inf on one column; where p1 is 0 the product is NaN.
        # The measure rule refuses such kernels, so the measure is built unchecked.
        K2 = np.ones((4, 2))
        K2[2] = 1e308
        K1 = np.array([[1.0], [1.0], [1.0], [0.0]])
        m = lcmeasure._owned(DiscreteLCMeasure, PS=np.full((4, 4), 1 / 16), K1=K1, K2=K2)
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(is_trivial(m).max_deviation)
            monkeypatch.setattr(lcmeasure, "TRIVIAL_BLOCK", 1)
            assert math.isnan(is_trivial(m).max_deviation)

    def test_a_64_by_64_source_is_one_block(self):
        assert lcmeasure.TRIVIAL_BLOCK >= 64 * 64

    def test_grid_2048_cosine_measure_needs_no_grid_squared_temporary(self):
        # The whole p1 ⊗ p2 product and its support mask took 37.9 MB traced.
        m = cosine_diagonal_measure(2048, 0.0, math.pi / 4)
        tracemalloc.start()
        try:
            assert not is_trivial(m).trivial
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_generator_contract(self, seed):
        rng = np.random.default_rng(seed)
        assert is_trivial(random_trivial_measure(rng, 8, 8, 3, 3)).trivial
        assert not is_trivial(random_nontrivial_measure(rng, 8, 8, 3, 3)).trivial


def test_one_row_blocked_pass_reads_the_support_and_block_constants():
    # _deviation is the one pass over a source's support in row blocks:
    # is_trivial and the random sweep both call it, is_trivial reads the
    # support rows of its c, and the sweep sizes its blocks of families.
    tree = ast.parse(Path(lcmeasure.__file__).read_text())

    def readers(constant: str) -> set[str]:
        return {
            top.name
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == constant and isinstance(node.ctx, ast.Load)
        }

    assert readers("TRIVIAL_BLOCK") == {"_deviation", "random_trivial_sweep"}
    assert readers("SUPPORT_EPS") == {"_deviation", "is_trivial"}
    for module in Path(lcmeasure.__file__).parent.glob("*.py"):
        text = module.read_text()
        assert module.name == "lcmeasure.py" or not ("TRIVIAL_BLOCK" in text or "SUPPORT_EPS" in text)


def test_entry_caps_are_read_only_by_the_one_size_check():
    # MAX_RANDOM_ENTRIES and MAX_COSINE_GRID**2 are read only as the cap of a
    # _check_entries call, and the four builders that allocate a size taken
    # from their arguments or a file each make one.
    def is_cap(node) -> bool:
        if isinstance(node, (ast.Name, ast.Attribute)):
            return getattr(node, "id", getattr(node, "attr", None)) == "MAX_RANDOM_ENTRIES"
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and getattr(node.left, "id", getattr(node.left, "attr", None)) == "MAX_COSINE_GRID"
        )

    checkers = []
    for module in sorted(Path(lcmeasure.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text())
        calls = [
            (top.name, call)
            for top in tree.body
            for call in ast.walk(top)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_check_entries"
        ]
        caps = {id(call.args[0]) for _, call in calls}
        reads = [n for n in ast.walk(tree) if is_cap(n) and not isinstance(getattr(n, "ctx", None), ast.Store)]
        assert all(id(n) in caps for n in reads), module.name
        checkers += [name for name, call in calls]
    assert sorted(checkers) == ["_check_operator_dims", "_check_random_shape", "_cosine_weighted", "measure_from_dict"]


def old_is_trivial(m: DiscreteLCMeasure) -> lcmeasure.TrivialityVerdict:
    """`is_trivial` as it was before its masked maximum, kept verbatim as an oracle."""
    p1, p2 = local_mass_functions(m)
    step = max(1, lcmeasure.TRIVIAL_BLOCK // max(1, m.n2))
    max_dev = 0.0
    rows = np.empty(m.n1, dtype=bool)  # the rows that meet the support
    for start in range(0, m.n1, step):
        blk = slice(start, start + step)
        supp = m.PS[blk] > lcmeasure.SUPPORT_EPS
        dev = np.outer(p1[blk], p2)  # |p1 ⊗ p2 - 1| in place
        dev -= 1.0
        max_dev = np.abs(dev, out=dev)[supp].max(initial=max_dev)
        rows[blk] = supp.any(axis=1)
    max_dev = float(max_dev)
    trivial = max_dev <= lcmeasure.TRIVIAL_TOL
    c = None
    if trivial:
        vals = p1[rows]
        weights = m.PS.sum(axis=1)[rows]
        if vals.size and float(vals.max() - vals.min()) <= lcmeasure.TRIVIAL_TOL * max(1.0, float(vals.max())):
            c = float(np.average(vals, weights=weights))
    return lcmeasure.TrivialityVerdict(trivial=trivial, c=c, max_deviation=max_dev)


def old_discrete_correlation(m: DiscreteLCMeasure, obs1, obs2) -> float:
    """`discrete_correlation` as it was before its one maximum a side, kept verbatim as an oracle."""
    obs1 = np.asarray(obs1, dtype=float)
    obs2 = np.asarray(obs2, dtype=float)
    if obs1.shape != (m.n1,) or obs2.shape != (m.n2,):
        raise ValueError("observables must match the source sides")
    if not (np.all(np.abs(obs1) <= 1.0 + 1e-12) and np.all(np.abs(obs2) <= 1.0 + 1e-12)):  # nan fails too
        raise ValueError("observable entries must lie in [-1, 1]")
    p1, p2 = local_mass_functions(m)
    return float((obs1 * p1) @ m.PS @ (obs2 * p2))


def bits(x) -> bytes | None:
    return None if x is None else struct.pack("<d", x)


def outcome(f, *args):
    """f(*args) as bits, or the message of the ValueError it raises."""
    try:
        result = f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    if isinstance(result, lcmeasure.TrivialityVerdict):
        return result.trivial, bits(result.c), bits(result.max_deviation)
    return bits(result)


def measures_for_the_oracles(rng) -> list[DiscreteLCMeasure]:
    """Random trivial and nontrivial measures, a transported one, a cosine
    one, one whose source has no support and one with a NaN row mass."""
    n1, n2 = (int(n) for n in rng.integers(1, 40, size=2))
    k1, k2 = np.ones((3, 2)), np.ones((4, 2))
    k1[1, 0] = np.nan
    return [
        random_trivial_measure(rng, n1, n2, 3, 2),
        random_nontrivial_measure(rng, n1 + 1, n2 + 1, 2, 3),
        apply_local_markov(random_trivial_measure(rng, n1, n2, 2, 3), LocalMarkovOperator.random_stochastic(rng, 2 * n1, 3 * n2)),
        cosine_diagonal_measure(int(rng.integers(1, 9)) * 8, float(rng.uniform(0, TWO_PI)), float(rng.uniform(0, TWO_PI))),
        lcmeasure._owned(DiscreteLCMeasure, PS=np.full((3, 4), 1e-13), K1=np.ones((3, 2)), K2=np.ones((4, 2))),
        lcmeasure._owned(DiscreteLCMeasure, PS=np.full((3, 4), 1 / 12), K1=k1, K2=k2),
        # A Fortran-ordered source: the constructor keeps the order it is given.
        DiscreteLCMeasure(PS=lcmeasure.random_source(rng, n2, n1).T, K1=np.ones((n1, 2)), K2=np.ones((n2, 3))),
    ]


def old_chsh_discrete(measures, obs1, obs2) -> float:
    """chsh_discrete as it was before it stacked its four correlations: one
    old_discrete_correlation per member, in chsh_pairs order."""
    pairs = chsh_pairs((*obs1, *obs2))
    return chsh(*(old_discrete_correlation(m, o1, o2) for m, (o1, o2) in zip(measures, pairs)))


def old_observable_sweep(rng, m: DiscreteLCMeasure, trials: int) -> float:
    """The `trivial --measure` observable sweep as `cli` ran it before
    `lcmeasure.observable_sweep`, on the old correlation, kept as an oracle."""
    best = -math.inf
    for _ in range(trials):
        obs1 = tuple(random_observables(rng, m.n1) for _ in range(2))
        obs2 = tuple(random_observables(rng, m.n2) for _ in range(2))
        best = max(best, old_chsh_discrete((m,) * 4, obs1, obs2))
    return best


def spoiled(rng, obs: np.ndarray) -> np.ndarray:
    """obs with one entry NaN or just outside [-1, 1], or just inside its tolerance."""
    out = obs.copy()
    out[int(rng.integers(out.size))] = rng.choice([np.nan, 1.5, -1.0 - 1e-11, 1.0 + 1e-12])
    return out


class TestLeanTriviality:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), block=st.sampled_from([1, 7, 64, 2**16]))
    def test_verdicts_and_correlations_match_the_old_functions_bit_for_bit(self, seed, block):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lcmeasure, "TRIVIAL_BLOCK", block)  # 1 and 7 split every measure into row blocks
            for m in measures_for_the_oracles(rng):
                assert outcome(is_trivial, m) == outcome(old_is_trivial, m)
                obs1, obs2 = random_observables(rng, m.n1), rng.uniform(-1.0, 1.0, m.n2)
                for o1, o2 in ((obs1, obs2), (spoiled(rng, obs1), obs2), (obs1, spoiled(rng, obs2))):
                    assert outcome(discrete_correlation, m, o1, o2) == outcome(old_discrete_correlation, m, o1, o2)
                    family, pair1, pair2 = (m,) * 4, (obs1, o1), (o2, obs2)
                    assert outcome(chsh_discrete, family, pair1, pair2) == outcome(old_chsh_discrete, family, pair1, pair2)
                if np.isfinite(local_mass_functions(m)[0]).all():
                    seed = int(rng.integers(2**32))
                    new = lcmeasure.observable_sweep(np.random.default_rng(seed), m, 9)
                    assert bits(new) == bits(old_observable_sweep(np.random.default_rng(seed), m, 9))


def old_random_chsh(rng: np.random.Generator, measures, n1: int, n2: int) -> float:
    """CHSH of `measures` under fresh random observables, side 1's two drawn first."""
    obs1 = tuple(lcmeasure.random_observables(rng, n1) for _ in range(2))
    obs2 = tuple(lcmeasure.random_observables(rng, n2) for _ in range(2))
    return old_chsh_discrete(measures, obs1, obs2)


def old_random_trivial_sweep(rng, count: int, n1: int, n2: int, m1: int, m2: int) -> dict:
    """`lcsim trivial --random`'s per-family loop as `cli.cmd_trivial` ran it
    before `lcmeasure.random_trivial_sweep`, kept verbatim as an oracle, on
    the old `is_trivial` and `chsh_discrete`."""
    max_chsh = -math.inf
    violations = 0
    all_trivial = True
    for _ in range(count):
        family = lcmeasure.random_trivial_family(rng, n1, n2, m1, m2)
        all_trivial = all_trivial and all(old_is_trivial(m).trivial for m in family)
        value = old_random_chsh(rng, family, n1, n2)
        max_chsh = max(max_chsh, value)
        if value > 2.0 + 1e-9:
            violations += 1
    return {"all_trivial": all_trivial, "max_chsh": max_chsh, "violations": violations}


def sweep_bits(doc: dict) -> tuple:
    return doc["all_trivial"], bits(doc["max_chsh"]), doc["violations"]


#: (count, n1, n2, m1, m2) of the random sweeps the oracle checks.
SWEEP_SIZES = [(40, 64, 64, 8, 8), (23, 5, 9, 3, 2), (17, 1, 1, 1, 1), (12, 1, 7, 2, 5), (9, 13, 1, 4, 1), (3, 300, 257, 2, 9)]


class TestRandomTrivialSweep:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("sizes", SWEEP_SIZES, ids=["x".join(map(str, s)) for s in SWEEP_SIZES])
    def test_matches_the_old_per_family_loop_bit_for_bit(self, seed, sizes):
        new = lcmeasure.random_trivial_sweep(np.random.default_rng(seed), *sizes)
        old = old_random_trivial_sweep(np.random.default_rng(seed), *sizes)
        assert sweep_bits(new) == sweep_bits(old)
        assert type(new["max_chsh"]) is float and type(new["all_trivial"]) is bool

    @pytest.mark.parametrize("sizes", SWEEP_SIZES[:3], ids=["x".join(map(str, s)) for s in SWEEP_SIZES[:3]])
    def test_block_budget_does_not_change_the_output(self, monkeypatch, sizes):
        count, n1, n2 = sizes[:3]
        family = n1 * n2 + 6 * (n1 + n2)  # source, row masses and observables
        expected = sweep_bits(lcmeasure.random_trivial_sweep(np.random.default_rng(5), *sizes))
        block, blocks = lcmeasure._trivial_block, []
        monkeypatch.setattr(lcmeasure, "_trivial_block", lambda rng, size, *rest: blocks.append(size) or block(rng, size, *rest))
        # One family, seven, all of them, and row blocks of a lone family.
        for budget, largest in ((family, 1), (7 * family, 7), (count * family, count), (3 * n2, 1), (1, 1)):
            monkeypatch.setattr(lcmeasure, "TRIVIAL_BLOCK", budget)
            blocks.clear()
            assert sweep_bits(lcmeasure.random_trivial_sweep(np.random.default_rng(5), *sizes)) == expected
            assert max(blocks) == largest and sum(blocks) == count

    def test_draws_the_old_stream(self):
        # The families and observables are drawn as before, so the generator
        # ends in the same state.
        rngs = [np.random.default_rng(3) for _ in range(2)]
        lcmeasure.random_trivial_sweep(rngs[0], 20, 6, 4, 3, 2)
        old_random_trivial_sweep(rngs[1], 20, 6, 4, 3, 2)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_counts_violations_above_the_tolerance(self, monkeypatch):
        # Unit observables give every trivial family the CHSH value 2 to
        # rounding; pushed past the tolerance, each counts once.
        monkeypatch.setattr(lcmeasure, "random_observables", lambda rng, n: np.ones(n))
        doc = lcmeasure.random_trivial_sweep(np.random.default_rng(1), 5, 4, 4, 2, 2)
        assert doc["violations"] == 0 and doc["max_chsh"] == pytest.approx(2.0, abs=1e-12)
        monkeypatch.setattr(lcmeasure, "VIOLATION_TOL", -1.0)
        assert lcmeasure.random_trivial_sweep(np.random.default_rng(1), 5, 4, 4, 2, 2)["violations"] == 5

    @pytest.mark.parametrize("count", [0, -1])
    def test_counts_below_one_are_refused_before_any_draw(self, count):
        # Count 0 read max_chsh -inf, which JSON prints as the invalid
        # -Infinity. Counts that are not integers: test_sides.py.
        m = small_measure()
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="family count must be an integer of at least 1"):
            lcmeasure.random_trivial_sweep(rng, count, 4, 4, 2, 2)
        with pytest.raises(ValueError, match="trial count must be an integer of at least 1"):
            lcmeasure.observable_sweep(rng, m, count)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("skewed", [0, 3, 5, 11])
    def test_one_nontrivial_member_clears_all_trivial(self, monkeypatch, skewed):
        member, calls = lcmeasure._trivial_member, []

        def drawn(rng, source, n1, n2, m1, m2):
            m = member(rng, source, n1, n2, m1, m2)
            calls.append(m)
            if len(calls) - 1 != skewed:
                return m
            return lcmeasure._owned(DiscreteLCMeasure, PS=m.PS, K1=m.K1 * (1 + 2e-9), K2=m.K2)

        monkeypatch.setattr(lcmeasure, "_trivial_member", drawn)
        monkeypatch.setattr(lcmeasure, "TRIVIAL_BLOCK", 2 * (4 * 4 + 6 * 8))  # blocks of two families
        assert not lcmeasure.random_trivial_sweep(np.random.default_rng(1), 3, 4, 4, 2, 2)["all_trivial"]


class TestRescale:
    def test_identity_rescaling(self):
        m = small_measure()
        out = rescale(m, np.ones(m.n1), np.ones(m.n2))
        assert np.allclose(out.PS, m.PS)
        assert np.allclose(out.K1, m.K1)

    def test_induced_measure_unchanged(self):
        rng = np.random.default_rng(11)
        m = small_measure(rng)
        q1 = np.exp(rng.uniform(-0.5, 0.5, m.n1))
        q2 = np.exp(rng.uniform(-0.5, 0.5, m.n2))
        norm = float(q1 @ m.PS @ q2)
        q1 = q1 / norm  # push the normalization into one factor
        out = rescale(m, q1, q2)
        assert np.allclose(induced_full_measure(out), induced_full_measure(m), atol=1e-12)

    def test_nonconstant_rescaling_breaks_triviality(self):
        rng = np.random.default_rng(12)
        m = small_measure(rng, trivial=True)
        q1 = np.linspace(0.5, 2.0, m.n1)
        q2 = np.ones(m.n2)
        norm = float(q1 @ m.PS @ q2)
        out = rescale(m, q1 / norm, q2)
        assert is_trivial(m).trivial
        assert not is_trivial(out).trivial

    def test_normalization_precondition(self):
        m = small_measure()
        with pytest.raises(ValueError, match="unit mass"):
            rescale(m, np.full(m.n1, 2.0), np.ones(m.n2))

    def test_overflowing_mass_is_refused_without_a_warning(self):
        # q1 @ PS @ q2 overflows to inf: refused as a mass, without numpy's
        # overflow warning, which the suite's filter turns into an error.
        m = DiscreteLCMeasure(PS=np.full((2, 2), 0.25), K1=np.ones((2, 1)), K2=np.ones((2, 1)))
        with pytest.raises(ValueError, match="unit mass, got inf"):
            rescale(m, [1e300, 1e300], [1e300, 1e300])

    def test_positivity_required(self):
        m = small_measure()
        with pytest.raises(ValueError):
            rescale(m, np.zeros(m.n1), np.ones(m.n2))

    def test_constant_split_preserves_verdict(self):
        # q1 ⊗ q2 constant and equal to 1 on the support changes nothing
        # about the classification, whichever way it started.
        for trivial in (True, False):
            m = small_measure(np.random.default_rng(21), trivial=trivial)
            out = rescale(m, np.full(m.n1, 3.0), np.full(m.n2, 1.0 / 3.0))
            assert is_trivial(out).trivial == is_trivial(m).trivial
            assert is_trivial(out).max_deviation == pytest.approx(
                is_trivial(m).max_deviation, abs=1e-9
            )


class TestMarkovTransport:
    def test_identity_preserves_functionals(self):
        m = small_measure()
        op = LocalMarkovOperator(np.eye(m.n1 * m.m1), np.eye(m.n2 * m.m2))
        out = apply_local_markov(m, op)
        p1a, p2a = local_mass_functions(m)
        p1b, p2b = local_mass_functions(out)
        assert np.allclose(p1a, p1b)
        assert np.allclose(p2a, p2b)
        rng = np.random.default_rng(1)
        for _ in range(5):
            o1 = random_observables(rng, m.n1)
            o2 = random_observables(rng, m.n2)
            assert discrete_correlation(out, o1, o2) == pytest.approx(
                discrete_correlation(m, o1, o2), abs=1e-12
            )

    def test_stochastic_preserves_triviality(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = random_trivial_measure(rng, 8, 8, 3, 3)
            op = LocalMarkovOperator.random_stochastic(rng, 24, 24)
            assert is_trivial(apply_local_markov(m, op)).max_deviation < 1e-9

    def test_permutation_preserves_nontriviality(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_nontrivial_measure(rng, 8, 8, 3, 3)
            op = LocalMarkovOperator.random_permutation(rng, 24, 24)
            out = apply_local_markov(m, op)
            assert is_trivial(out).max_deviation >= 1e-3

    def test_dimension_mismatch(self):
        m = small_measure()
        with pytest.raises(ValueError, match="dimensions"):
            apply_local_markov(m, LocalMarkovOperator(np.eye(4), np.eye(4)))

    @pytest.mark.parametrize("side", [1, 2])
    def test_overflowing_kernel_is_refused(self, side):
        # Operator entries near 1e300 times kernel entries of 1e10 overflow
        # to inf, which no measure may hold.
        K = {1: np.ones((2, 3)), 2: np.ones((2, 1))}
        K[side] = np.full_like(K[side], 1e10)
        m = DiscreteLCMeasure(PS=np.full((2, 2), 0.25), K1=K[1], K2=K[2])
        T = {1: np.eye(6), 2: np.eye(2)}
        T[side] = np.full_like(T[side], 1e300)
        with pytest.raises(ValueError, match=f"K{side} must be finite and nonnegative"):
            apply_local_markov(m, LocalMarkovOperator(T[1], T[2]))

    @pytest.mark.parametrize(
        "scale1, scale2, message",
        [(1e308, 1.0, "K1 must be finite and nonnegative"), (1e200, 1e200, "must have a finite product")],
        ids=["row-mass", "row-mass-product"],
    )
    def test_overflowing_row_masses_are_refused(self, scale1, scale2, message):
        # Every transported entry is finite: K1' is [[scale1, scale1]] and K2'
        # [[scale2]]. K1's row mass overflows, or the largest masses' product.
        m = DiscreteLCMeasure(PS=[[1.0]], K1=[[1.0, 1.0]], K2=[[1.0]])
        op = LocalMarkovOperator(scale1 * np.eye(2), [[scale2]])
        assert np.isfinite(lcmeasure._transport_kernel(m.K1, op.T1)).all()
        with pytest.raises(ValueError, match=message):
            apply_local_markov(m, op)

    def test_transport_keeps_the_source_object(self):
        rng = np.random.default_rng(5)
        m = random_trivial_measure(rng, 6, 5, 3, 4)
        out = apply_local_markov(m, LocalMarkovOperator.random_stochastic(rng, 18, 20))
        assert out.PS is m.PS
        assert not any(a.flags.writeable for a in (out.PS, out.K1, out.K2))

    def test_flags(self):
        rng = np.random.default_rng(4)
        st_op = LocalMarkovOperator.random_stochastic(rng, 6, 6)
        pm_op = LocalMarkovOperator.random_permutation(rng, 6, 6)
        assert st_op.T1.ndim == st_op.T2.ndim == 2
        for T in (st_op.T1, st_op.T2):
            assert np.all(np.abs(T.sum(axis=1) - 1.0) <= 1e-9)
        # A permutation is an index vector that holds every index once.
        assert pm_op.T1.ndim == pm_op.T2.ndim == 1
        for r in (pm_op.T1, pm_op.T2):
            assert np.array_equal(np.sort(r), np.arange(6))
        # The dense pair is two read-only views of one read-only block.
        assert st_op.T1.base is st_op.T2.base is not None and not st_op.T1.base.flags.writeable
        for T in (st_op.T1, st_op.T2):
            assert T.flags.c_contiguous and not T.flags.writeable

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize(
        "dims",
        [(-1, 4), (4, -2), (True, 4), (4, 2.0), (4, "4")],
        ids=["negative-dim1", "negative-dim2", "bool", "float", "string"],
    )
    def test_bad_dimensions_are_refused_before_any_draw(self, dense, dims):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        draw = LocalMarkovOperator.random_stochastic if dense else LocalMarkovOperator.random_permutation
        with pytest.raises(ValueError, match="operator dimension dim[12] must be an integer of at least 0"):
            draw(rng, *dims)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("dense", [True, False])
    def test_numpy_integer_dimensions_are_accepted(self, dense):
        # The same draws as Python ints give, from the same generator state.
        draw = LocalMarkovOperator.random_stochastic if dense else LocalMarkovOperator.random_permutation
        op = draw(np.random.default_rng(9), np.int64(4), np.uint8(3))
        ref = draw(np.random.default_rng(9), 4, 3)
        for T, T_ref in ((op.T1, ref.T1), (op.T2, ref.T2)):
            assert T.shape == T_ref.shape and T.tobytes() == T_ref.tobytes()

    def test_numpy_integer_dimension_is_capped_without_wrapping(self, monkeypatch):
        # As an int64 product, 2**32 squared wraps to 0 and would pass the cap.
        monkeypatch.setattr(lcmeasure, "stochastic_matrix", lambda *a, **k: pytest.fail("drawn before the cap"))
        with np.errstate(over="ignore"):
            assert np.int64(2**32) * np.int64(2**32) == 0
        rng = np.random.default_rng(10)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="T1 of 4294967296 × 4294967296 = 18446744073709551616 entries"):
            LocalMarkovOperator.random_stochastic(rng, np.int64(2**32), 1)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("dims", [(2**16, 1), (1, 2049)])
    def test_dense_dimensions_are_capped_before_any_draw(self, monkeypatch, dims):
        # 2**16 squared asks for 32 GiB. Should the block be allocated, it is
        # never written: the patched drawing function refuses first.
        def refuse(*args, **kwargs):
            raise AssertionError("drawn before the dimension check")

        monkeypatch.setattr(lcmeasure, "stochastic_matrix", refuse)
        rng = np.random.default_rng(10)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="too large to allocate"):
            LocalMarkovOperator.random_stochastic(rng, *dims)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("sizes", [(0, 5, 2, 2), (4, 0, 2, 2), (4, 5, 0, 2), (4, 5, 2, -1)])
    def test_random_measures_refuse_sizes_below_one_before_any_draw(self, sizes):
        rng = np.random.default_rng(12)
        state = rng.bit_generator.state
        for build in (random_trivial_measure, random_trivial_family, random_nontrivial_measure):
            with pytest.raises(ValueError, match="must be an integer of at least 1"):
                build(rng, *sizes)
        assert rng.bit_generator.state == state

    def test_dimension_caps(self):
        # 2048² is the entry cap itself; the permutation form has no square.
        cap = math.isqrt(lcmeasure.MAX_RANDOM_ENTRIES)
        assert cap * cap == lcmeasure.MAX_RANDOM_ENTRIES
        op = LocalMarkovOperator.random_stochastic(np.random.default_rng(11), 0, cap)
        assert op.T1.shape == (0, 0) and op.T2.shape == (cap, cap)
        assert LocalMarkovOperator.random_permutation(np.random.default_rng(11), 0, 2**16).T2.size == 2**16

    def test_repeated_stochastic_transports_do_not_fault_their_memory_back_in(self):
        # Two separately freed 2 MiB matrices per operator let glibc trim the
        # heap after every transport, and the next one faulted about 4 MiB
        # back in: some 22,400 minor faults over these 20 transports, against
        # a handful from the one block. A fresh process keeps the count free
        # of whatever this one allocated before.
        code = (
            "import resource, numpy as np\n"
            "from lcsim.lcmeasure import LocalMarkovOperator, apply_local_markov, is_trivial, random_trivial_measure\n"
            "rng = np.random.default_rng(0)\n"
            "def transport():\n"
            "    m = random_trivial_measure(rng, 64, 64, 8, 8)\n"
            "    is_trivial(apply_local_markov(m, LocalMarkovOperator.random_stochastic(rng, 512, 512)))\n"
            "for _ in range(3):\n"
            "    transport()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(20):\n"
            "    transport()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(lcmeasure.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert int(run.stdout) < 1000


def transport_digest() -> str:
    """sha256 over the transported kernels and their max_deviation of seeded
    stochastic transports of trivial measures and permutation transports of
    nontrivial ones, at dimension 512 and at an uneven shape."""
    h = hashlib.sha256()
    rng = np.random.default_rng(1616)
    for n1, n2, m1, m2 in ((64, 64, 8, 8), (6, 5, 3, 4)):
        for _ in range(3):
            for draw, operator in (
                (random_trivial_measure, LocalMarkovOperator.random_stochastic),
                (random_nontrivial_measure, LocalMarkovOperator.random_permutation),
            ):
                m = draw(rng, n1, n2, m1, m2)
                out = apply_local_markov(m, operator(rng, n1 * m1, n2 * m2))
                for kernel in (out.K1, out.K2):
                    h.update(repr(kernel.shape).encode())
                    h.update(kernel.tobytes())
                h.update(struct.pack("<d", is_trivial(out).max_deviation))
    return h.hexdigest()


class TestTransportOracle:
    def test_seeded_transports_are_frozen(self):
        assert transport_digest() == TRANSPORT_DIGEST

    @pytest.mark.parametrize("shape", [(64, 64, 8, 8), (6, 5, 3, 4)])
    def test_index_form_matches_dense_permutation(self, shape):
        n1, n2, m1, m2 = shape
        rng = np.random.default_rng(17)
        m = random_nontrivial_measure(rng, *shape)
        # Zero entries, whole zero rows included, must land as zeros too.
        K1, K2 = m.K1.copy(), m.K2.copy()
        K1[rng.random(K1.shape) < 0.3] = 0.0
        K1[1] = 0.0
        K2[rng.random(K2.shape) < 0.3] = 0.0
        m = DiscreteLCMeasure(PS=m.PS, K1=K1, K2=K2)
        op = LocalMarkovOperator.random_permutation(rng, n1 * m1, n2 * m2)
        dense = LocalMarkovOperator(np.eye(n1 * m1)[op.T1], np.eye(n2 * m2)[op.T2])
        out, ref = apply_local_markov(m, op), apply_local_markov(m, dense)
        assert out.K1.tobytes() == ref.K1.tobytes() and out.K2.tobytes() == ref.K2.tobytes()
        assert out.K1.shape == ref.K1.shape and out.K2.shape == ref.K2.shape
        assert is_trivial(out).max_deviation == is_trivial(ref).max_deviation

    def test_permutation_draws_the_bare_permutations(self):
        rng, ref = np.random.default_rng(18), np.random.default_rng(18)
        op = LocalMarkovOperator.random_permutation(rng, 12, 20)
        assert np.array_equal(op.T1, ref.permutation(12))
        assert np.array_equal(op.T2, ref.permutation(20))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_constructed_arrays_are_readonly(self):
        rng = np.random.default_rng(19)
        for op in (LocalMarkovOperator.random_stochastic(rng, 6, 4), LocalMarkovOperator.random_permutation(rng, 6, 4)):
            assert not op.T1.flags.writeable and not op.T2.flags.writeable
        family = random_trivial_family(rng, 5, 4, 3, 2)
        assert all(m.PS is family[0].PS for m in family)
        for m in (*family, random_trivial_measure(rng, 5, 4, 3, 2), random_nontrivial_measure(rng, 5, 4, 3, 2)):
            assert not any(a.flags.writeable for a in (m.PS, m.K1, m.K2))


class TestPabMarkovian:
    # Transport keeps the unit-mass condition p1 ⊗ p2 = 1 on the support
    # exactly when the transported measure is trivial.
    def test_stochastic_on_trivial(self):
        rng = np.random.default_rng(5)
        m = random_trivial_measure(rng, 6, 6, 3, 3)
        op = LocalMarkovOperator.random_stochastic(rng, 18, 18)
        assert is_trivial(apply_local_markov(m, op)).trivial

    def test_scaled_pair_balances(self):
        # T1*(1) = 2 and T2*(1) = 1/2 leave the unit-mass product intact.
        rng = np.random.default_rng(6)
        m = random_trivial_measure(rng, 6, 6, 3, 3)
        op = LocalMarkovOperator(
            2.0 * stochastic_matrix(rng, 18, 18),
            0.5 * stochastic_matrix(rng, 18, 18),
        )
        assert np.allclose(op.T1.sum(axis=1), 2.0) and np.allclose(op.T2.sum(axis=1), 0.5)
        assert is_trivial(apply_local_markov(m, op)).trivial

    def test_zeroing_operator_fails(self):
        rng = np.random.default_rng(7)
        m = random_trivial_measure(rng, 6, 6, 3, 3)
        op = LocalMarkovOperator(np.zeros((18, 18)), np.eye(18))
        verdict = is_trivial(apply_local_markov(m, op))
        assert not verdict.trivial
        assert verdict.max_deviation == pytest.approx(1.0, abs=1e-12)


class TestDiscreteCorrelation:
    def test_unit_observables_give_unit_mass(self):
        m = small_measure()
        assert discrete_correlation(m, np.ones(m.n1), np.ones(m.n2)) == pytest.approx(1.0, abs=1e-9)

    def test_zero_observable(self):
        m = small_measure()
        assert discrete_correlation(m, np.ones(m.n1), np.zeros(m.n2)) == 0.0

    def test_sign_flip(self):
        rng = np.random.default_rng(8)
        m = small_measure(rng)
        o1 = random_observables(rng, m.n1)
        o2 = random_observables(rng, m.n2)
        assert discrete_correlation(m, -o1, o2) == pytest.approx(
            -discrete_correlation(m, o1, o2), abs=1e-12
        )

    def test_out_of_range_rejected(self):
        m = small_measure()
        with pytest.raises(ValueError):
            discrete_correlation(m, np.full(m.n1, 1.5), np.ones(m.n2))

    def test_nan_observable_rejected(self):
        m = small_measure()
        nan = np.ones(m.n1)
        nan[1] = np.nan
        for obs1, obs2 in ((nan, np.ones(m.n2)), (np.ones(m.n1), nan[: m.n2])):
            with pytest.raises(ValueError, match=r"\[-1, 1\]"):
                discrete_correlation(m, obs1, obs2)
            with pytest.raises(ValueError, match=r"\[-1, 1\]"):
                chsh_discrete((m,) * 4, (obs1, obs1), (obs2, obs2))


class TestChshDiscrete:
    def test_unit_observables_on_trivial_family(self):
        rng = np.random.default_rng(9)
        family = random_trivial_family(rng, 6, 6, 3, 3)
        ones1 = (np.ones(6), np.ones(6))
        ones2 = (np.ones(6), np.ones(6))
        assert chsh_discrete(family, ones1, ones2) == pytest.approx(2.0, abs=1e-9)

    def test_requires_shared_source(self):
        rng = np.random.default_rng(10)
        family = list(random_trivial_family(rng, 5, 5, 2, 2))
        family[3] = random_trivial_measure(rng, 5, 5, 2, 2)
        with pytest.raises(ValueError, match="share"):
            chsh_discrete(tuple(family), (np.ones(5), np.ones(5)), (np.ones(5), np.ones(5)))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_trivial_family_respects_bound(self, seed):
        rng = np.random.default_rng(seed)
        family = random_trivial_family(rng, 8, 8, 3, 3)
        o1 = tuple(random_observables(rng, 8) for _ in range(2))
        o2 = tuple(random_observables(rng, 8) for _ in range(2))
        assert chsh_discrete(family, o1, o2) <= 2.0 + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_rescaled_family_stays_essentially_classical(self, seed):
        # Rescaling makes the members nontrivial without changing the induced
        # functionals, so the bound of 2 must survive.
        rng = np.random.default_rng(seed)
        family = random_trivial_family(rng, 8, 8, 3, 3)
        q1 = np.exp(rng.uniform(-0.5, 0.5, 8))
        q2 = np.exp(rng.uniform(-0.5, 0.5, 8))
        q1 = q1 / float(q1 @ family[0].PS @ q2)
        rescaled = tuple(rescale(m, q1, q2) for m in family)
        assert any(not is_trivial(m).trivial for m in rescaled)
        o1 = tuple(random_observables(rng, 8) for _ in range(2))
        o2 = tuple(random_observables(rng, 8) for _ in range(2))
        assert chsh_discrete(rescaled, o1, o2) <= 2.0 + 1e-9


class TestCosineDiagonal:
    def test_riemann_oracle_and_target(self):
        # Independent oracle: Riemann sum of (1/4)|cos(s-a)| f1 f2 on the same
        # grid, built from first principles and divided by its total mass.
        n = 64
        grid = diagonal_grid(n)

        def oracle_corr(a, b):
            w = 0.25 * np.abs(np.cos(grid - a)) * (2 * math.pi / n)
            w = w / w.sum()
            f1 = spin_values(1, a, grid).astype(float)
            f2 = spin_values(2, b, grid).astype(float)
            return float(np.sum(w * f1 * f2))

        a, a2, b, b2 = TSIRELSON_SETTINGS
        oracle = abs(oracle_corr(a, b) - oracle_corr(a, b2)) + abs(
            oracle_corr(a2, b) + oracle_corr(a2, b2)
        )
        family, o1, o2 = cosine_diagonal_family(n, TSIRELSON_SETTINGS, 8, 8, 1)
        value = chsh_discrete(family, o1, o2)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert abs(value - 2 * math.sqrt(2)) < 0.05

    def test_measure_is_nontrivial(self):
        m = cosine_diagonal_measure(64, 0.0, math.pi / 4)
        verdict = is_trivial(m)
        assert not verdict.trivial
        assert verdict.max_deviation >= 1e-3

    def test_weight_side_two(self):
        family, o1, o2 = cosine_diagonal_family(64, TSIRELSON_SETTINGS, 8, 8, 2)
        assert abs(chsh_discrete(family, o1, o2) - 2 * math.sqrt(2)) < 0.05

    @pytest.mark.parametrize("weight_side", [1, 2])
    def test_unit_mass_and_tsirelson(self, weight_side):
        # The midpoint rule alone leaves the mass at 1 + 4.0e-4 on this grid,
        # which pushed CHSH 1.1e-3 above 2√2.
        family, o1, o2 = cosine_diagonal_family(64, TSIRELSON_SETTINGS, 8, 8, weight_side)
        for m in family:
            p1, p2 = local_mass_functions(m)
            assert abs(float(p1 @ m.PS @ p2) - 1.0) <= 1e-12
        value = chsh_discrete(family, o1, o2)
        assert value == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert value <= 2 * math.sqrt(2) + 1e-12

    @pytest.mark.parametrize("weight_side", [1, 2])
    def test_family_shares_one_readonly_source(self, weight_side):
        family, _, _ = cosine_diagonal_family(16, TSIRELSON_SETTINGS, 8, 8, weight_side)
        assert all(m.PS is family[0].PS for m in family)
        assert not family[0].PS.flags.writeable
        for m, (a, b) in zip(family, chsh_pairs(TSIRELSON_SETTINGS)):
            alone = cosine_diagonal_measure(16, a, b, weight_side=weight_side)
            for name in ("PS", "K1", "K2"):
                assert getattr(m, name).tobytes() == getattr(alone, name).tobytes()
                assert not getattr(m, name).flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_family_settings_must_be_finite(self, monkeypatch, bad, position):
        def refuse(*args, **kwargs):
            raise AssertionError("a member was built")

        monkeypatch.setattr(lcmeasure, "cosine_diagonal_measure", refuse)
        monkeypatch.setattr(lcmeasure, "diagonal_grid", refuse)
        settings = list(TSIRELSON_SETTINGS)
        settings[position] = bad
        name = ("a", "a2", "b", "b2")[position]
        with pytest.raises(ValueError, match=f"cosine-diagonal setting {name} must be a finite number"):
            cosine_diagonal_family(16, tuple(settings), 8, 8, 1)

    @pytest.mark.parametrize(
        "grid, settings",
        [
            *((grid, TSIRELSON_SETTINGS) for grid in (16.0, True, "16", 1, 4097)),
            *((16, (bad, 0.0, 0.0, 0.0)) for bad in ("0", True, None, math.nan, math.inf, -math.inf, 10**400)),
            (16, (0.0, 0.0, math.nan, 0.0)),
        ],
        ids=["grid-float", "grid-bool", "grid-string", "grid-1", "grid-4097", "a-string", "a-bool", "a-none",
             "a-nan", "a-inf", "a-minus-inf", "a-huge-integer", "b-nan"],
    )
    def test_bad_arguments_raise_before_any_array(self, monkeypatch, grid, settings):
        # ValueError, never TypeError, and before the grid or the source exists.
        class ArrayBuilt(Exception):
            pass

        def refuse(*args, **kwargs):
            raise ArrayBuilt

        monkeypatch.setattr(np, "diag", refuse)
        monkeypatch.setattr(lcmeasure, "diagonal_grid", refuse)
        a, _, b, _ = settings
        with pytest.raises(ValueError):
            cosine_diagonal_measure(grid, a, b)
        with pytest.raises(ValueError):
            cosine_diagonal_measure(grid, b, a, weight_side=2)
        with pytest.raises(ValueError):
            cosine_diagonal_family(grid, settings, 8, 8, 1)

    def test_built_without_the_constructor(self, monkeypatch):
        # Every member is valid by construction: the copying, checking
        # constructor never runs, and it accepts each member as built.
        def refuse(self):
            raise AssertionError("the constructor ran")

        built = [cosine_diagonal_measure(n, a, b, m1=3, m2=2, weight_side=side)
                 for n in (2, 3, 9, 64) for a, b in ((0.0, 0.0), (1e300, -7.0), (5e-324, 2.5)) for side in (1, 2)]
        family, _, _ = cosine_diagonal_family(16, TSIRELSON_SETTINGS, 8, 8, 1)
        monkeypatch.setattr(DiscreteLCMeasure, "__post_init__", refuse)
        assert cosine_diagonal_measure(16, 0.0, 1.0).n1 == 16
        assert len(cosine_diagonal_family(16, TSIRELSON_SETTINGS, 8, 8, 1)[0]) == 4
        monkeypatch.undo()
        for m in (*built, *family):
            DiscreteLCMeasure(PS=m.PS, K1=m.K1, K2=m.K2)

    def test_file_check_allocates_nothing_of_grid_squared_entries(self, tmp_path):
        # A rebuilt grid-2048 measure and its difference with the file take
        # 64.4 MB; the check reads only the source's support and diagonal,
        # and builds only the kernels.
        path = tmp_path / "cosine.json"
        meta = {"family": "cosine-diagonal", "grid": 2048}
        save_measure(path, cosine_diagonal_measure(2048, 0.0, math.pi / 4), meta=meta)
        m, meta = load_measure(path)
        tracemalloc.start()
        try:
            assert check_cosine_file(m, meta) == (2048, 8, 8, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("meta", [None, {}, {"family": "other", "grid": 16}, ["cosine-diagonal"], "cosine-diagonal"])
    def test_file_check_passes_over_other_files(self, meta):
        assert check_cosine_file(cosine_diagonal_measure(8, 0.0, 0.0), meta) is None

    @pytest.mark.parametrize("fields", [lcmeasure.COSINE_DEFAULTS, {"grid": 9, "a": -1.0, "b": 7.0, "m1": 1, "m2": 3, "weight_side": 2}])
    def test_written_file_holds_the_measure_its_meta_names(self, tmp_path, fields):
        path, expected = tmp_path / "written.json", tmp_path / "direct.json"
        meta = lcmeasure.save_cosine_measure(path, **fields)
        assert meta == {"family": lcmeasure.COSINE_FAMILY, **fields}
        save_measure(expected, cosine_diagonal_measure(*fields.values()), meta=meta)
        assert path.read_bytes() == expected.read_bytes()
        m, loaded = load_measure(path)
        assert loaded == meta
        assert check_cosine_file(m, loaded) == (fields["grid"], fields["m1"], fields["m2"], fields["weight_side"])

    def test_file_check_reads_missing_fields_from_the_defaults(self):
        fields = {**lcmeasure.COSINE_DEFAULTS, "grid": 16}
        m = cosine_diagonal_measure(*fields.values())
        assert check_cosine_file(m, {"family": lcmeasure.COSINE_FAMILY, "grid": 16}) == (16, 8, 8, 1)
        with pytest.raises(ValueError, match="does not match"):  # the grid has no default
            check_cosine_file(m, {"family": lcmeasure.COSINE_FAMILY})

    @pytest.mark.parametrize("grid, m1, m2, weight_side", [(64, 8, 8, 1), (16, 3, 5, 2)])
    def test_file_chsh_is_its_family_at_the_tsirelson_settings(self, grid, m1, m2, weight_side):
        settings, value = lcmeasure.cosine_file_chsh(grid, m1, m2, weight_side)
        family, o1, o2 = cosine_diagonal_family(grid, TSIRELSON_SETTINGS, m1=m1, m2=m2, weight_side=weight_side)
        assert settings == TSIRELSON_SETTINGS
        assert value == chsh_discrete(family, o1, o2)

    def test_file_chsh_reaches_tsirelson_only_on_grids_divisible_by_8(self):
        # Elsewhere the Tsirelson settings miss the grid and the value can
        # read above 2√2 at unit mass.
        for weight_side in (1, 2):
            values = {grid: lcmeasure.cosine_file_chsh(grid, 8, 8, weight_side)[1] for grid in range(2, 65)}
            near = [grid for grid, value in values.items() if abs(value - 2 * math.sqrt(2)) <= 1e-12]
            assert near == list(range(8, 65, 8))
        assert lcmeasure.cosine_file_chsh(12, 8, 8, 2)[1] == pytest.approx(2.9282, abs=5e-5)
        assert lcmeasure.cosine_file_chsh(7, 8, 8, 1)[1] == pytest.approx(2.8509, abs=5e-5)

    def test_uniform_diagonal_has_unit_mass_at_every_grid(self):
        assert max(abs(float(np.full(n, 1.0 / n).sum()) - 1.0) for n in range(2, 4097)) <= 7e-16
        for n in (2, 3, 7, 100, 1000):
            assert abs(float(cosine_diagonal_measure(n, 0.0, 0.0).PS.sum()) - 1.0) <= 7e-16

    @pytest.mark.parametrize("weight_side", [1, 2])
    @pytest.mark.parametrize("width", [0, -1, True, 2.0])
    @pytest.mark.parametrize("key", ["m1", "m2"])
    def test_kernel_widths_must_be_positive_integers(self, key, width, weight_side):
        # Width 0 used to build an (n, 0) kernel of induced mass 0, and -1
        # failed inside numpy; both must be refused before any array exists.
        with pytest.raises(ValueError, match=f"kernel width {key} must be an integer of at least 1"):
            cosine_diagonal_measure(8, 0.0, 0.0, weight_side=weight_side, **{key: width})
        with pytest.raises(ValueError, match=f"kernel width {key} must be an integer of at least 1"):
            cosine_diagonal_family(8, TSIRELSON_SETTINGS, **{"m1": 8, "m2": 8, key: width}, weight_side=weight_side)


class TestSerialization:
    @pytest.mark.parametrize(
        "m",
        [
            small_measure(),
            random_nontrivial_measure(np.random.default_rng(4), 9, 7, 3, 5),
            *(cosine_diagonal_measure(n, 0.3, 2.0, weight_side=side) for n in (16, 512) for side in (1, 2)),
        ],
        ids=["random-trivial", "random-nontrivial", "cosine-16-side-1", "cosine-16-side-2",
             "cosine-512-side-1", "cosine-512-side-2"],
    )
    def test_roundtrip(self, tmp_path, m):
        path = tmp_path / "measure.json"
        save_measure(path, m, meta={"label": "x"})
        loaded, meta = load_measure(path)
        for name in ("PS", "K1", "K2"):
            saved, back = getattr(m, name), getattr(loaded, name)
            assert back.shape == saved.shape and back.tobytes() == saved.tobytes()
        assert meta == {"label": "x"}

    def test_dict_roundtrip_without_meta(self):
        m = small_measure()
        loaded, meta = measure_from_dict(measure_to_dict(m))
        assert meta is None
        assert np.allclose(loaded.K2, m.K2)

    @pytest.mark.parametrize("form", ["dense", "support"])
    def test_negative_mass_rejected(self, tmp_path, form):
        m = small_measure()
        doc = measure_to_dict(m)
        if form == "dense":
            doc["PS"] = m.PS.tolist()
            doc["PS"][0][0] = -0.25
        else:
            doc["PS"]["weights"][0] = -0.25
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="nonnegative"):
            load_measure(path)

    def test_source_is_written_as_its_support(self):
        m = cosine_diagonal_measure(4, 0.0, 0.0)
        assert measure_to_dict(m)["PS"] == {"rows": [0, 1, 2, 3], "cols": [0, 1, 2, 3], "weights": [0.25] * 4}
        doc = measure_to_dict(small_measure())
        rows, cols = np.divmod(np.arange(30), 5)
        assert doc["PS"]["rows"] == rows.tolist() and doc["PS"]["cols"] == cols.tolist()

    def test_negative_zero_source_entry_reloads_as_zero(self):
        PS = np.diag([0.5, 0.5])
        PS[0, 1] = -0.0
        m = DiscreteLCMeasure(PS=PS, K1=np.ones((2, 1)), K2=np.ones((2, 1)))
        doc = measure_to_dict(m)
        assert doc["PS"]["rows"] == [0, 1]
        loaded, _ = measure_from_dict(json.loads(json.dumps(doc)))
        assert loaded.PS.tobytes() == np.diag([0.5, 0.5]).tobytes()

    def test_files_are_read_without_the_copying_constructor(self, monkeypatch):
        # measure_from_dict runs the constructor's checks on the arrays it
        # converts, once each; the constructor would copy them again.
        docs = [measure_to_dict(small_measure()), measure_to_dict(cosine_diagonal_measure(16, 0.3, 2.0))]
        docs.append({**docs[0], "PS": small_measure().PS.tolist()})
        expected = [measure_from_dict(doc)[0] for doc in docs]
        monkeypatch.setattr(DiscreteLCMeasure, "__post_init__", lambda self: pytest.fail("the constructor ran"))
        for doc, want in zip(docs, expected):
            got, _ = measure_from_dict(doc)
            assert all(getattr(got, k).tobytes() == getattr(want, k).tobytes() for k in ("PS", "K1", "K2"))
            assert not any(getattr(got, k).flags.writeable for k in ("PS", "K1", "K2"))

    def test_grid_2048_file_loads_into_one_grid_squared_array(self, tmp_path):
        # The 33.5 MB dense source was filled, then copied by the
        # constructor: 74.2 MB traced.
        path = tmp_path / "cosine.json"
        save_measure(path, cosine_diagonal_measure(2048, 0.0, math.pi / 4))
        tracemalloc.start()
        try:
            m, _ = load_measure(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.PS.nbytes == 2048**2 * 8
        assert peak < 45e6

    def test_dense_source_files_still_load(self):
        m = small_measure()
        doc = measure_to_dict(m)
        doc["PS"] = m.PS.tolist()
        assert measure_from_dict(doc)[0].PS.tobytes() == m.PS.tobytes()

    def test_grid_512_cosine_file_is_small(self, tmp_path):
        # The dense form of this file was 1,432,324 bytes.
        path = tmp_path / "cosine.json"
        save_measure(path, cosine_diagonal_measure(512, 0.0, math.pi / 4))
        assert path.stat().st_size < 200_000

    @pytest.mark.parametrize("support, message", MALFORMED_SUPPORTS.values(), ids=MALFORMED_SUPPORTS.keys())
    def test_malformed_support_rejected(self, tmp_path, support, message):
        doc = malformed_support_document(support)
        with pytest.raises(ValueError, match=message):
            measure_from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["trivial", "--measure", str(path)]) == cli.EXIT_VALIDATION

    def test_declared_dims_checked(self):
        m = small_measure()
        doc = measure_to_dict(m)
        doc["m1"] = doc["m1"] + 1
        with pytest.raises(ValueError, match="dimensions"):
            measure_from_dict(doc)

    @pytest.mark.parametrize("key", ["n1", "n2", "m1", "m2"])
    @pytest.mark.parametrize("convert", [float, str, lambda n: [n]], ids=["float", "str", "list"])
    def test_declared_dims_must_be_integers(self, key, convert):
        doc = measure_to_dict(small_measure())
        doc[key] = convert(doc[key])
        with pytest.raises(ValueError, match=f"declared dimension {key} must be an integer"):
            measure_from_dict(doc)

    @pytest.mark.parametrize(
        "dims,message",
        [((10**6, 10**6, 1, 1), "PS of 1000000 × 1000000 = 1000000000000 entries"), ((1, 1, 2**24 + 1, 1), "K1 of"),
         ((1, 1, 1, 2**24 + 1), "K2 of"), ((1, 1, -1, 1), "m1 must be an integer of at least 0, got -1")],
    )
    def test_declared_dims_are_guarded_before_any_array(self, monkeypatch, dims, message):
        # A few bytes that declare a huge measure are refused on the declared
        # sizes alone, before the matrices are read; so are negative sizes.
        def refuse(*args, **kwargs):
            raise AssertionError("a matrix was built")

        doc = dict(zip(("n1", "n2", "m1", "m2"), dims), PS=[[1.0]], K1=[[1.0]], K2=[[1.0]])
        monkeypatch.setattr(np, "asarray", refuse)
        with pytest.raises(ValueError, match=message):
            measure_from_dict(doc)

    def test_widest_cosine_files_pass_the_guard(self):
        # cosine_diagonal_measure refuses any wider kernels, so no file that
        # cosine-measure writes is refused on its declared sizes.
        n = lcmeasure.MAX_COSINE_GRID
        for m1, m2 in ((n, 1), (1, n)):
            doc = {"n1": n, "n2": n, "m1": m1, "m2": m2, "PS": [[1.0]], "K1": [[1.0]], "K2": [[1.0]]}
            with pytest.raises(ValueError, match="do not match"):
                measure_from_dict(doc)
            with pytest.raises(ValueError, match="too large to allocate"):
                cosine_diagonal_measure(n, 0.0, 0.0, m1=m1 + (m1 > 1), m2=m2 + (m2 > 1))

    def test_declared_dim_true_is_not_one(self):
        doc = measure_to_dict(DiscreteLCMeasure(PS=np.ones((1, 1)), K1=np.ones((1, 1)), K2=np.ones((1, 1))))
        assert measure_from_dict(doc)[0].n1 == 1
        doc["n1"] = True
        with pytest.raises(ValueError, match="declared dimension n1 must be an integer"):
            measure_from_dict(doc)
