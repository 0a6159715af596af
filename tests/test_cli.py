import csv
import io
import json
import math

import numpy as np
import pytest

from lcsim import lcmeasure, protocol
from lcsim.cli import EXIT_OK, EXIT_STATISTICAL, EXIT_VALIDATION, main
from lcsim.models import TSIRELSON_SETTINGS, CandidateModel
from lcsim.protocol import ExperimentConfig, run_experiment
from lcsim.uniqueness import verify_reproduction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalytic:
    def test_equal_settings_table(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--a", "0", "--b", "0")
        assert code == EXIT_OK
        assert "IxI  0.500000000000" in out
        assert "C    -1.000000000000" in out

    def test_opposite_settings(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--a", "0", "--b", "3.14159265358979", "--json")
        doc = json.loads(out)
        assert doc["quadrants"]["IxI"] == pytest.approx(0.0, abs=1e-12)
        assert doc["correlation"] == pytest.approx(1.0, abs=1e-12)

    def test_rotation_invariance(self, capsys):
        _, out1, _ = run_cli(capsys, "analytic", "--a", "1", "--b", "1", "--json")
        _, out0, _ = run_cli(capsys, "analytic", "--a", "0", "--b", "0", "--json")
        d1, d0 = json.loads(out1), json.loads(out0)
        assert d1["quadrants"] == pytest.approx(d0["quadrants"])

    def test_degrees_flag(self, capsys):
        _, out, _ = run_cli(capsys, "analytic", "--a", "0", "--b", "90", "--degrees", "--json")
        assert json.loads(out)["quadrants"]["IxI"] == pytest.approx(0.25, abs=1e-12)

    def test_malformed_angle_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analytic", "--a", "zero", "--b", "0"])
        assert exc.value.code == 2

    def test_negative_zero_angle_prints_zero(self, capsys):
        # -0 and negative multiples of 2π normalize to +0.0, not -0.0.
        for a in ("-0", "-6.283185307179586"):
            _, out, _ = run_cli(capsys, "analytic", "--a", a, "--b", "0", "--json")
            assert '"a": 0.0,' in out

    def test_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "analytic", "--a", "0.3", "--b", "1.2", "--json")
        _, out2, _ = run_cli(capsys, "analytic", "--a", "0.3", "--b", "1.2", "--json")
        assert out1 == out2


class TestScan:
    def test_grid_rows_and_analytic_column(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--grid", "8", "--pairs", "2000", "--seed", "3")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["a", "b", "c_analytic", "c_mc"]
        assert len(rows) - 1 == 64
        for a_str, b_str, c_an, _ in rows[1:]:
            assert float(c_an) == pytest.approx(-math.cos(float(b_str) - float(a_str)), abs=1e-12)

    def test_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--grid", "1", "--pairs", "2000")
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) - 1 == 1
        assert float(rows[1][2]) == pytest.approx(-1.0)

    def test_malformed_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--grid", "0"])
        assert exc.value.code == 2


class TestSimulate:
    def test_summary_schema_and_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--pairs", "200000", "--a", "0", "--b", "0.785398", "--seed", "7"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"settings", "n", "detections", "coincidences", "coincidence_rate", "estimate"}
        assert doc["estimate"]["kind"] == "coincidence"
        assert doc["estimate"]["value"] == pytest.approx(-math.cos(0.785398), abs=0.01)

    def test_zero_pairs_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--pairs", "0", "--a", "0", "--b", "0"])
        assert exc.value.code == 2

    def test_modes(self, capsys):
        for mode, kind in (("weighted", "weighted"), ("standard", "standard")):
            _, out, _ = run_cli(
                capsys, "simulate", "--pairs", "50000", "--a", "0", "--b", "1.0", "--mode", mode
            )
            assert json.loads(out)["estimate"]["kind"] == kind

    def test_deterministic_output(self, capsys):
        args = ("simulate", "--pairs", "30000", "--a", "0.2", "--b", "1.1", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_events_csv(self, capsys, tmp_path):
        log = tmp_path / "events.csv"
        run_cli(
            capsys, "simulate", "--pairs", "100", "--a", "0", "--b", "1.0",
            "--events-csv", str(log),
        )
        with open(log) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tick", "side", "value"]

    def test_events_csv_runs_the_trial_once(self, capsys, tmp_path, monkeypatch):
        emitted = []
        run_source = protocol.run_source

        def counted_source(n, seed):
            emitted.append(n)
            return run_source(n, seed)

        monkeypatch.setattr(protocol, "run_source", counted_source)
        argv = ("simulate", "--pairs", "300", "--a", "0", "--b", "1.0", "--events-csv", str(tmp_path / "e.csv"))
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert emitted == [300]
        cfg = ExperimentConfig(n=300, a=0.0, b=1.0, source_seed=101, station1_seed=102, station2_seed=103)
        assert json.loads(out) == run_experiment(cfg).to_dict()

    @pytest.mark.parametrize(
        "offset,events",
        [("100000000000000000000", False), ("9223372036854775800", True)],
        ids=["offset-past-int64", "last-tick-past-int64"],
    )
    def test_tick_overflow_is_validation_error(self, capsys, tmp_path, offset, events):
        log = tmp_path / "e.csv"
        argv = ["simulate", "--pairs", "10", "--a", "0", "--b", "0", "--offset", offset]
        code, _, err = run_cli(capsys, *argv, *(["--events-csv", str(log)] if events else []))
        assert code == EXIT_VALIDATION
        assert "int64" in err
        assert not log.exists()

    def test_zero_coincidences_exit_code(self, capsys):
        # Hunt a seed whose single emission is rejected by the window.
        seed = None
        for candidate in range(200):
            cfg = ExperimentConfig(
                n=1, a=0.0, b=0.0,
                source_seed=candidate, station1_seed=candidate + 1, station2_seed=candidate + 2,
            )
            try:
                run_experiment(cfg)
            except Exception:
                seed = candidate
                break
        assert seed is not None
        code, _, err = run_cli(
            capsys, "simulate", "--pairs", "1", "--a", "0", "--b", "0", "--seed", str(seed)
        )
        assert code == EXIT_STATISTICAL
        assert "statistical failure" in err


class TestUniqueness:
    def test_builtin_abs_cos(self, capsys):
        code, out, err = run_cli(
            capsys, "uniqueness", "--builtin", "abs-cos", "--grid", "8",
            "--no-reconstruction",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["reproduces"] is True
        assert "reproduces" in err  # human-readable table on stderr

    def test_builtin_cos_squared_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "uniqueness", "--builtin", "cos-squared", "--grid", "8",
            "--no-reconstruction",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["reproduces"] is False
        assert doc["max_quadrant_error"] > 0.02

    def test_builtin_follows_weight_side(self, capsys):
        code, out, err = run_cli(
            capsys, "uniqueness", "--builtin", "abs-cos", "--weight-side", "2", "--grid", "8",
            "--no-reconstruction",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [c["holds"] for c in doc["necessary_conditions"]] == [True] * 4
        assert "FAILS" not in err
        want = verify_reproduction(CandidateModel.abs_cos(2), grid=8, weight_side=2, reconstruct=False)
        assert doc == json.loads(json.dumps(want.to_dict()))

    def test_model_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "rho": {"builtin": "uniform"},
            "p1": {"builtin": "abs-cos"},
            "p2": {"builtin": "uniform"},
        }))
        code, out, _ = run_cli(
            capsys, "uniqueness", "--model", str(path), "--grid", "8",
            "--no-reconstruction",
        )
        assert code == EXIT_OK
        assert json.loads(out)["reproduces"] is True

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "uniqueness", "--model", "/nonexistent/model.json", "--grid", "8")
        assert code == EXIT_VALIDATION
        assert "error" in err

    def test_panels_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["uniqueness", "--builtin", "abs-cos", "--panels", "8"])
        assert exc.value.code == 2
        assert "--panels" in capsys.readouterr().err

    def test_tolerance_below_quadrature_error_is_validation_error(self, capsys):
        code, out, _ = run_cli(capsys, "uniqueness", "--builtin", "cos-squared", "--grid", "8", "--no-reconstruction")
        assert code == EXIT_OK
        error = json.loads(out)["quadrature_error"]
        assert error > 0.0
        code, _, err = run_cli(
            capsys, "uniqueness", "--builtin", "cos-squared", "--grid", "8", "--no-reconstruction",
            "--tol", repr(error / 2),
        )
        assert code == EXIT_VALIDATION
        assert "below the quadrature error" in err

    def test_sampled_model_on_a_fine_grid(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        samples = np.abs(np.cos(2.0 * math.pi * np.arange(256) / 256))
        path.write_text(json.dumps({
            "rho": {"builtin": "uniform"},
            "p1": {"samples": samples.tolist()},
            "p2": {"builtin": "uniform"},
        }))
        code, out, _ = run_cli(capsys, "uniqueness", "--model", str(path), "--grid", "64", "--no-reconstruction")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["reproduces"] is True
        assert doc["max_quadrant_error"] < 1e-12


class TestTrivial:
    def test_random_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "trivial", "--random", "50", "--seed", "2",
            "--n1", "16", "--n2", "16", "--m1", "4", "--m2", "4",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["all_trivial"] is True
        assert doc["violations"] == 0
        assert doc["max_chsh"] <= 2.0 + 1e-9

    def test_measure_file_verdict(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        m = lcmeasure.random_trivial_measure(rng, 8, 8, 3, 3)
        path = tmp_path / "measure.json"
        lcmeasure.save_measure(path, m)
        code, out, _ = run_cli(capsys, "trivial", "--measure", str(path), "--sweep", "20")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["verdict"]["trivial"] is True
        assert doc["chsh"]["kind"] == "observable-sweep"
        assert doc["chsh"]["max"] <= 2.0 + 1e-9

    def test_cosine_family_file_reaches_tsirelson(self, capsys, tmp_path):
        n = 64
        m = lcmeasure.cosine_diagonal_measure(n, 0.0, math.pi / 4)
        path = tmp_path / "cosine.json"
        lcmeasure.save_measure(
            path, m,
            meta={"family": "cosine-diagonal", "grid": n, "a": 0.0, "b": math.pi / 4,
                  "m1": 8, "m2": 8, "weight_side": 1},
        )
        code, out, _ = run_cli(capsys, "trivial", "--measure", str(path))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["verdict"]["trivial"] is False
        assert doc["chsh"]["kind"] == "setting-family"
        assert doc["chsh"]["value"] == pytest.approx(2 * math.sqrt(2), abs=0.05)

    @pytest.mark.parametrize(
        "meta",
        [
            {},
            {"grid": None},
            {"grid": "16"},
            {"grid": 16.5},
            {"grid": 16, "m1": True},
            {"grid": 16, "m1": None},
            {"grid": 16, "m1": 0},
            {"grid": 16, "m2": 2.0},
            {"grid": 16, "weight_side": "1"},
        ],
        ids=["grid-missing", "grid-null", "grid-string", "grid-float", "m1-bool",
             "m1-null", "m1-zero", "m2-float", "weight-side-string"],
    )
    def test_cosine_meta_needs_integer_fields(self, capsys, tmp_path, meta):
        path = tmp_path / "cosine.json"
        m = lcmeasure.cosine_diagonal_measure(16, 0.0, math.pi / 4)
        lcmeasure.save_measure(path, m, meta={"family": "cosine-diagonal", **meta})
        code, _, err = run_cli(capsys, "trivial", "--measure", str(path))
        assert code == EXIT_VALIDATION
        assert "validation error" in err

    def test_cosine_meta_defaults(self, capsys, tmp_path):
        path = tmp_path / "cosine.json"
        m = lcmeasure.cosine_diagonal_measure(16, 0.0, math.pi / 4)
        lcmeasure.save_measure(path, m, meta={"family": "cosine-diagonal", "grid": 16})
        code, out, _ = run_cli(capsys, "trivial", "--measure", str(path))
        assert code == EXIT_OK
        family, o1, o2 = lcmeasure.cosine_diagonal_family(16, TSIRELSON_SETTINGS, m1=8, m2=8, weight_side=1)
        assert json.loads(out)["chsh"]["value"] == lcmeasure.chsh_discrete(family, o1, o2)

    @pytest.mark.parametrize(
        "meta, message",
        [
            ({"grid": 32, "m1": 3, "m2": 5, "weight_side": 2}, "does not match the matrices"),
            ({"grid": 32}, "does not match the matrices"),
            ({"grid": 64, "m1": 4}, "does not match the matrices"),
            ({"grid": 64, "m2": 16}, "does not match the matrices"),
            ({"grid": 64, "weight_side": 2}, "deviates"),
            ({"grid": 64, "a": 0.5}, "deviates"),
            ({"grid": 64, "weight_side": 3}, "weight side"),
            ({"grid": 64, "a": "0"}, "finite number"),
            ({"grid": 64, "b": True}, "finite number"),
            ({"grid": 64, "b": None}, "finite number"),
        ],
        ids=["every-field", "grid", "m1", "m2", "weight-side", "a", "weight-side-3",
             "a-string", "b-bool", "b-null"],
    )
    def test_cosine_meta_must_describe_the_file(self, capsys, tmp_path, meta, message):
        # The file holds the grid-64 measure at (0, π/4), m1 = m2 = 8, weight
        # side 1; with the weight on side 1 the measure does not depend on b.
        path = tmp_path / "cosine.json"
        m = lcmeasure.cosine_diagonal_measure(64, 0.0, math.pi / 4)
        lcmeasure.save_measure(path, m, meta={"family": "cosine-diagonal", **meta})
        code, out, err = run_cli(capsys, "trivial", "--measure", str(path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "validation error" in err and message in err

    def test_cosine_meta_matches_every_generated_file(self, capsys, tmp_path):
        for grid, a, b, m1, m2, weight_side in ((16, 0.3, 2.0, 2, 5, 2), (9, -1.0, 7.0, 1, 1, 1)):
            path = tmp_path / "cosine.json"
            m = lcmeasure.cosine_diagonal_measure(grid, a, b, m1=m1, m2=m2, weight_side=weight_side)
            meta = {"family": "cosine-diagonal", "grid": grid, "a": a, "b": b,
                    "m1": m1, "m2": m2, "weight_side": weight_side}
            lcmeasure.save_measure(path, m, meta=meta)
            code, out, _ = run_cli(capsys, "trivial", "--measure", str(path))
            assert code == EXIT_OK
            assert json.loads(out)["chsh"]["grid"] == grid

    def test_negative_mass_file(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        m = lcmeasure.random_trivial_measure(rng, 4, 4, 2, 2)
        doc = lcmeasure.measure_to_dict(m)
        doc["K1"][0][0] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "trivial", "--measure", str(path))
        assert code == EXIT_VALIDATION
        assert "validation error" in err


GOOD_MODEL = {"rho": {"builtin": "uniform"}, "p1": {"builtin": "abs-cos"}, "p2": {"builtin": "uniform"}}


@pytest.mark.parametrize(
    "command,doc",
    [
        ("uniqueness", 3),
        ("uniqueness", {**GOOD_MODEL, "p1": {"samples": 5}}),
        ("uniqueness", {**GOOD_MODEL, "rho": {"builtin": ["x"]}}),
        ("uniqueness", {**GOOD_MODEL, "scale": None}),
        ("trivial", 3),
    ],
    ids=["model-number", "samples-number", "builtin-list", "scale-null", "measure-number"],
)
def test_malformed_input_file_is_validation_error(capsys, tmp_path, command, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    flag = "--model" if command == "uniqueness" else "--measure"
    code, _, err = run_cli(capsys, command, flag, str(path))
    assert code == EXIT_VALIDATION
    assert "validation error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--pairs", str(10**17), "--a", "0", "--b", "0"),
        ("trivial", "--random", "1", "--n1", "1000000000", "--n2", "1000000000"),
    ],
    ids=["simulate-pairs", "trivial-dimensions"],
)
def test_input_too_large_to_allocate_is_validation_error(capsys, argv):
    # Both requests exceed any address space, so they fail before touching memory.
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_VALIDATION
    assert "too large to allocate" in err
    assert out == ""
