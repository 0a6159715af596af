import ast
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lcsim import cli, lcmeasure, models, protocol, uniqueness
from lcsim.cli import EXIT_OK, EXIT_STATISTICAL, EXIT_VALIDATION, build_parser, main
from lcsim.models import TSIRELSON_SETTINGS, CandidateModel
from lcsim.protocol import ExperimentConfig, run_experiment
from lcsim.uniqueness import verify_reproduction
from test_lcmeasure import OVERFLOWING_DOCUMENTS
from test_protocol import peak_rss_mb


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

    def test_out_writes_the_json_document_with_or_without_json(self, capsys, tmp_path):
        # stdout is the table or the document, as without --out.
        argv = ("analytic", "--a", "0.3", "--b", "2.2")
        _, table, _ = run_cli(capsys, *argv)
        _, doc, _ = run_cli(capsys, *argv, "--json")
        for flags, stdout in (((), table), (("--json",), doc)):
            path = tmp_path / f"analytic{len(flags)}.json"
            assert run_cli(capsys, *argv, *flags, "--out", str(path)) == (EXIT_OK, stdout, "")
            assert path.read_text() == doc


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

    def test_memory_does_not_grow_with_the_square_of_the_grid(self, tmp_path, monkeypatch):
        # The whole 256 x 256 analytic table alone took 3.7 MB; one row of it takes 12 kB.
        class Summary:
            estimate = protocol.CorrelationEstimate(value=0.0, n=1, stderr=0.0, kind="coincidence")

        monkeypatch.setattr(protocol, "run_experiment", lambda cfg: Summary)
        tracemalloc.start()
        try:
            assert main(["scan", "--grid", "256", "--out", str(tmp_path / "scan.csv")]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

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
        assert set(doc) == {"settings", "n", "detections", "coincidences", "coincidence_rate", "cells", "estimate"}
        assert list(doc["cells"]) == [q.value for q in models.Quadrant]
        assert sum(doc["cells"].values()) == doc["coincidences"]
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

        def counted_source(n, seed, start=0):
            emitted.append(n)
            return run_source(n, seed, start)

        monkeypatch.setattr(protocol, "run_source", counted_source)
        argv = ("simulate", "--pairs", "300", "--a", "0", "--b", "1.0", "--events-csv", str(tmp_path / "e.csv"))
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert emitted == [300]
        cfg = ExperimentConfig(n=300, a=0.0, b=1.0, source_seed=101, station1_seed=102, station2_seed=103)
        assert json.loads(out) == run_experiment(cfg).to_dict()

    def test_station2_seed_moves_only_side_2_rows(self, capsys, tmp_path):
        # Coincidence mode with the window on side 2: only station 2 draws.
        def side_rows(station2_seed):
            log = tmp_path / f"events-{station2_seed}.csv"
            code, _, _ = run_cli(
                capsys, "simulate", "--pairs", "3000", "--a", "0.3", "--b", "2.2", "--weight-side", "2",
                "--source-seed", "11", "--station1-seed", "12", "--station2-seed", station2_seed,
                "--events-csv", str(log),
            )
            assert code == EXIT_OK
            rows = log.read_bytes().split(b"\r\n")[1:-1]
            return [[row for row in rows if row.split(b",")[1] == side] for side in (b"1", b"2")]

        (side1, side2), (side1_moved, side2_moved) = side_rows("13"), side_rows("14")
        assert len(side1) == 3000
        assert b"\r\n".join(side1) == b"\r\n".join(side1_moved)
        assert side2 != side2_moved

    @pytest.mark.parametrize(
        "offset,events,message",
        [("100000000000000000000", False, "at most 9223372036854775807"), ("9223372036854775800", True, "int64")],
        ids=["offset-past-int64", "last-tick-past-int64"],
    )
    def test_tick_overflow_is_validation_error(self, capsys, tmp_path, offset, events, message):
        log = tmp_path / "e.csv"
        argv = ["simulate", "--pairs", "10", "--a", "0", "--b", "0", "--offset", offset]
        code, _, err = run_cli(capsys, *argv, *(["--events-csv", str(log)] if events else []))
        assert code == EXIT_VALIDATION
        assert message in err
        assert not log.exists()

    def test_refused_setting_writes_no_event_log(self, capsys, tmp_path):
        log = tmp_path / "e.csv"
        code, _, err = run_cli(capsys, "simulate", "--pairs", "10", "--a", "nan", "--b", "0", "--events-csv", str(log))
        assert code == EXIT_VALIDATION
        assert "finite" in err
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


class TestChsh:
    def test_both_modes_at_2000_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "chsh", "--pairs", "2000")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["pairs"], doc["seed"], doc["settings"]) == (2000, 7, list(TSIRELSON_SETTINGS))
        assert doc["coincidence"]["chsh"] > 2.5
        assert doc["standard"]["chsh"] < 2.3
        assert [len(doc[mode]["runs"]) for mode in ("coincidence", "standard")] == [4, 4]

    def test_equals_chsh_estimate_at_the_same_seed(self, capsys):
        _, out, _ = run_cli(capsys, "chsh", "--pairs", "3000", "--seed", "11")
        doc = json.loads(out)
        for mode in ("coincidence", "standard"):
            result = protocol.chsh_estimate(3000, TSIRELSON_SETTINGS, mode=mode, base_seed=11)
            assert doc[mode]["chsh"] == result["chsh"]
            assert doc[mode]["runs"] == [run.to_dict() for run in result["runs"]]

    @pytest.mark.parametrize("argv", [("--pairs", "0"), ("--pairs", "many"), ("--seed", "-1")])
    def test_bad_counts_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(["chsh", *argv])
        assert exc.value.code == 2


class TestCosineMeasure:
    def test_file_feeds_trivial(self, capsys, tmp_path):
        path = tmp_path / "cosine.json"
        code, _, _ = run_cli(capsys, "cosine-measure", "--grid", "8", "--out", str(path))
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "trivial", "--measure", str(path))
        assert code == EXIT_OK
        assert '"setting-family"' in out

    @pytest.mark.parametrize(
        "argv, args",
        [((), (64, 0.0, math.pi / 4, 8, 8, 1)),
         (("--grid", "16", "--a", "0.3", "--b", "2.1", "--m1", "3", "--m2", "5", "--weight-side", "2"),
          (16, 0.3, 2.1, 3, 5, 2))],
        ids=["defaults", "every-flag"],
    )
    def test_writes_the_measure_and_prints_its_meta(self, capsys, tmp_path, argv, args):
        path, expected = tmp_path / "cli.json", tmp_path / "direct.json"
        code, out, _ = run_cli(capsys, "cosine-measure", *argv, "--out", str(path))
        assert code == EXIT_OK
        meta = dict(zip(("grid", "a", "b", "m1", "m2", "weight_side"), args), family="cosine-diagonal")
        lcmeasure.save_measure(expected, lcmeasure.cosine_diagonal_measure(*args), meta=meta)
        assert path.read_bytes() == expected.read_bytes()
        assert json.loads(out) == meta

    @pytest.mark.parametrize(
        "argv, message",
        [(("--grid", "1"), "grid must be an integer of at least 2"),
         (("--a", "nan"), "setting a must be a finite number, got nan"),
         (("--b", "nan"), "setting b must be a finite number, got nan"),
         (("--b", "inf", "--weight-side", "2"), "setting b must be a finite number, got inf")],
        ids=["grid-1", "a-nan", "b-nan-unweighted", "b-inf-weighted"],
    )
    def test_bad_grid_or_angle_is_validation_error(self, capsys, tmp_path, argv, message):
        path = tmp_path / "cosine.json"
        code, out, err = run_cli(capsys, "cosine-measure", *argv, "--out", str(path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "validation error" in err and message in err
        assert not path.exists()

    def test_peak_memory_of_a_grid_512_file(self, tmp_path):
        # Over a bare import of lcsim.cli, writing this file and reading it
        # back took +17.6 and +17.2 MB (child VmHWM) while its source was
        # written as a dense 512 × 512 list; as its support, +4.5 and +10.4 MB;
        # +3.3 and +6.1 MB while trivial held up to three 512 × 512 arrays at
        # once; now about +3.4 and +4.8 MB.
        path = str(tmp_path / "cosine.json")
        bare = peak_rss_mb([])
        assert peak_rss_mb(["cosine-measure", "--grid", "512", "--out", path]) <= bare + 10
        assert peak_rss_mb(["trivial", "--measure", path]) <= bare + 8

    def test_peak_memory_of_a_grid_2048_file(self, tmp_path):
        # Over a bare import of lcsim.cli these took +67 and +136 MB (child
        # VmHWM) while the measure went through the copying constructor and
        # triviality built three grid × grid temporaries, and trivial took
        # +102 MB while the meta check rebuilt the measure to diff it; +71 MB
        # while loading copied the source, triviality built the whole
        # p1 ⊗ p2, and the loaded source outlived the check; now about +37
        # and +38 MB, one 33.5 MB source at a time.
        path = str(tmp_path / "cosine.json")
        bare = peak_rss_mb([])
        assert peak_rss_mb(["cosine-measure", "--grid", "2048", "--out", path]) <= bare + 50
        assert peak_rss_mb(["trivial", "--measure", path]) <= bare + 50

    def test_grid_above_4096_is_validation_error(self, capsys, tmp_path, monkeypatch):
        # The dense grid × grid source is refused before it exists: building
        # it through the patched constructor fails the test instead.
        class DenseSourceBuilt(Exception):
            pass

        def refuse(*args, **kwargs):
            raise DenseSourceBuilt

        monkeypatch.setattr(np, "diag", refuse)
        path = tmp_path / "cosine.json"
        code, out, err = run_cli(capsys, "cosine-measure", "--grid", "4097", "--out", str(path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "validation error" in err and "at most 4096, got 4097" in err
        assert not path.exists()
        with pytest.raises(ValueError, match="at most 4096"):
            lcmeasure.cosine_diagonal_family(4097, TSIRELSON_SETTINGS, 8, 8, 1)
        with pytest.raises(DenseSourceBuilt):
            main(["cosine-measure", "--grid", "4096", "--out", str(path)])

    def test_flag_defaults_are_the_file_defaults(self):
        args = build_parser().parse_args(["cosine-measure", "--out", "cosine.json"])
        assert {key: getattr(args, key) for key in lcmeasure.COSINE_DEFAULTS} == lcmeasure.COSINE_DEFAULTS

    def test_cli_holds_no_rule_of_the_file(self):
        # The family name, the meta fields and their defaults live in lcmeasure.
        tree = ast.parse(Path(cli.__file__).read_text())
        literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert lcmeasure.COSINE_FAMILY not in literals
        calls = {node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
        assert not calls & {"cosine_diagonal_measure", "cosine_diagonal_family", "save_measure"}

    @pytest.mark.parametrize(
        "argv", [("--m1", "0"), ("--m2", "-1"), ("--grid", "0"), ("--weight-side", "3")],
        ids=["m1-zero", "m2-negative", "grid-zero", "weight-side-3"],
    )
    def test_bad_flag_is_usage_error(self, tmp_path, argv):
        path = tmp_path / "cosine.json"
        with pytest.raises(SystemExit) as exc:
            main(["cosine-measure", *argv, "--out", str(path)])
        assert exc.value.code == 2
        assert not path.exists()


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
        want = verify_reproduction(CandidateModel.one_sided("abs-cos", 2), grid=8, weight_side=2, reconstruct=False)
        assert doc == json.loads(json.dumps(want.to_dict()))

    def test_grid_above_the_limit_exits_before_quadrature(self, capsys, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the quadrature ran")

        monkeypatch.setattr(models, "quadrant_table_quadrature", no_quadrature)
        monkeypatch.setattr(uniqueness, "quadrant_table_quadrature", no_quadrature)
        code, out, err = run_cli(capsys, "uniqueness", "--builtin", "abs-cos", "--grid", "2049")
        assert code == EXIT_VALIDATION
        assert out == "" and "at most 2048" in err

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

    def test_profile_with_builtin_and_samples_is_validation_error(self, capsys, tmp_path):
        # Neither field may silently win: the samples would otherwise be dropped.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "rho": {"builtin": "uniform"},
            "p1": {"builtin": "abs-cos", "samples": [1.0, 0.0, 1.0, 0.0]},
            "p2": {"builtin": "uniform"},
        }))
        code, out, err = run_cli(capsys, "uniqueness", "--model", str(path), "--grid", "8", "--no-reconstruction")
        assert code == EXIT_VALIDATION
        assert "exactly one of" in err
        assert out == ""

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "uniqueness", "--model", "/nonexistent/model.json", "--grid", "8")
        assert code == EXIT_VALIDATION
        assert "error" in err

    def test_h_ladder_is_second_order(self, capsys):
        # README's h-ladder: halving the step quarters the reconstruction error.
        errors = []
        for h in ("2e-3", "1e-3"):
            code, out, _ = run_cli(capsys, "uniqueness", "--builtin", "abs-cos", "--h", h)
            assert code == EXIT_OK
            errors.append(json.loads(out)["reconstruction"]["sup_error_interior"])
        assert 3.5 < errors[0] / errors[1] < 4.5

    def test_panels_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["uniqueness", "--builtin", "abs-cos", "--panels", "8"])
        assert exc.value.code == 2
        assert "--panels" in capsys.readouterr().err

    def test_tolerance_below_quadrature_error_is_validation_error(self, capsys):
        code, out, _ = run_cli(capsys, "uniqueness", "--builtin", "abs-cos", "--grid", "8", "--no-reconstruction")
        assert code == EXIT_OK
        report = json.loads(out)
        error = report["quadrature_error"]
        assert 0.0 < error < 1e-13
        assert error >= report["max_quadrant_error"] - 1e-15
        code, _, err = run_cli(
            capsys, "uniqueness", "--builtin", "abs-cos", "--grid", "8", "--no-reconstruction",
            "--tol", repr(error / 2),
        )
        assert code == EXIT_VALIDATION
        assert "below the quadrature error" in err

    def test_nan_tolerance_is_validation_error(self, capsys):
        argv = ("uniqueness", "--builtin", "abs-cos", "--grid", "8", "--no-reconstruction", "--tol")
        code, out, err = run_cli(capsys, *argv, "nan")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "tolerance nan is NaN or below the quadrature error" in err
        code, out, _ = run_cli(capsys, *argv, "inf")
        assert code == EXIT_OK
        assert json.loads(out)["reproduces"] is True

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

    @pytest.mark.parametrize(
        "sizes",
        [
            ("--n1", "30000", "--n2", "30000"),
            ("--n1", "2049", "--n2", "2048"),
            ("--n1", "1048576", "--n2", "1", "--m1", "5"),
            ("--n1", "1", "--n2", "524288", "--m2", "9"),
        ],
        ids=["source-30000-squared", "source-just-above", "kernel-1", "kernel-2"],
    )
    def test_random_sizes_above_the_cap_exit_3_before_drawing(self, capsys, monkeypatch, sizes):
        def refuse(*args):
            raise AssertionError("a random matrix was drawn")

        monkeypatch.setattr(lcmeasure, "random_source", refuse)
        monkeypatch.setattr(lcmeasure, "stochastic_matrix", refuse)
        code, out, err = run_cli(capsys, "trivial", "--random", "1", *sizes)
        assert code == EXIT_VALIDATION
        assert "too large to allocate" in err and str(lcmeasure.MAX_RANDOM_ENTRIES) in err
        assert out == ""

    def test_random_sizes_at_the_cap_are_drawn(self, monkeypatch):
        class Drawn(Exception):
            pass

        def drawn(*args):
            raise Drawn

        monkeypatch.setattr(lcmeasure, "random_source", drawn)
        for sizes in (("--n1", "2048", "--n2", "2048"), ("--n1", "524288", "--n2", "1", "--m1", "8")):
            with pytest.raises(Drawn):
                main(["trivial", "--random", "1", *sizes])

    def test_peak_memory_of_a_random_sweep_at_the_cap(self):
        # Over a bare import of lcsim.cli this took +72 MB (child VmHWM)
        # while the next family was drawn with the last one still alive; now
        # about +41 MB, one 33.5 MB source at a time.
        bare = peak_rss_mb([])
        assert peak_rss_mb(["trivial", "--random", "2", "--n1", "2048", "--n2", "2048"]) <= bare + 80

    def test_peak_memory_of_a_random_sweep_with_wide_kernels(self):
        # A family's kernels are 16.8 MB here. Holding a block of 13
        # families' kernels took +391 MB (child VmHWM); reduced to row
        # masses as they are drawn, one family's are held, about +23 MB.
        bare = peak_rss_mb([])
        argv = ["trivial", "--random", "16", "--n1", "64", "--n2", "64", "--m1", "4096", "--m2", "4096"]
        assert peak_rss_mb(argv) <= bare + 40

    def test_cmd_trivial_holds_no_arithmetic(self):
        # The sweeps and the verdict live in lcmeasure; cli only calls them.
        tree = next(node for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
                    if isinstance(node, ast.FunctionDef) and node.name == "cmd_trivial")
        assert not [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While, ast.comprehension, ast.BinOp))]

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

    def test_measure_file_declaring_a_huge_measure_exits_3(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n1": 10**6, "n2": 10**6, "m1": 1, "m2": 1,
                                    "PS": [[1.0]], "K1": [[1.0]], "K2": [[1.0]]}))
        code, out, err = run_cli(capsys, "trivial", "--measure", str(path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "validation error" in err and "at most 16777216" in err

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
            {"grid": 16.0},
            {"grid": 16, "m1": 8.0},
            {"grid": 16, "weight_side": True},
            {"grid": 16, "weight_side": 1.0},
        ],
        ids=["grid-missing", "grid-null", "grid-string", "grid-float", "m1-bool",
             "m1-null", "m1-zero", "m2-float", "weight-side-string", "grid-integral-float",
             "m1-integral-float", "weight-side-bool", "weight-side-float"],
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
        "meta, moved, message",
        [
            ({"grid": 32, "m1": 3, "m2": 5, "weight_side": 2}, None, "does not match the matrices"),
            ({"grid": 32}, None, "does not match the matrices"),
            ({"grid": 64, "m1": 4}, None, "does not match the matrices"),
            ({"grid": 64, "m2": 16}, None, "does not match the matrices"),
            ({"grid": 64, "weight_side": 2}, None, "deviates"),
            ({"grid": 64, "a": 0.5}, None, "deviates"),
            ({"grid": 64, "weight_side": 3}, None, "weight side"),
            ({"grid": 64, "a": "0"}, None, "finite number"),
            ({"grid": 64, "b": True}, None, "finite number"),
            ({"grid": 64, "b": None}, None, "finite number"),
            ({"grid": 64}, (0, 1), "stored PS deviates by 1e-09"),
            ({"grid": 64}, (1, 1), "stored PS deviates by 1e-09"),
        ],
        ids=["every-field", "grid", "m1", "m2", "weight-side", "a", "weight-side-3",
             "a-string", "b-bool", "b-null", "ps-off-diagonal", "ps-non-uniform-diagonal"],
    )
    def test_cosine_meta_must_describe_the_file(self, capsys, tmp_path, meta, moved, message):
        # The file holds the grid-64 measure at (0, π/4), m1 = m2 = 8, weight
        # side 1; with the weight on side 1 the measure does not depend on b.
        # `moved` names the source entry that gets 1e-9 of PS[0, 0]'s mass
        # before the file is written.
        path = tmp_path / "cosine.json"
        m = lcmeasure.cosine_diagonal_measure(64, 0.0, math.pi / 4)
        if moved is not None:
            PS = m.PS.copy()
            PS[0, 0] -= 1e-9
            PS[moved] += 1e-9
            m = lcmeasure.DiscreteLCMeasure(PS=PS, K1=m.K1, K2=m.K2)
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

    @pytest.mark.parametrize("rows,declared", [(6, 6.0), (1, True)], ids=["float", "bool"])
    def test_non_integer_declared_dimension_file(self, capsys, tmp_path, rows, declared):
        m = lcmeasure.random_trivial_measure(np.random.default_rng(0), rows, 4, 2, 2)
        doc = lcmeasure.measure_to_dict(m)
        doc["n1"] = declared
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "trivial", "--measure", str(path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "declared dimension n1 must be an integer" in err

    @pytest.mark.parametrize("doc, message", OVERFLOWING_DOCUMENTS.values(), ids=OVERFLOWING_DOCUMENTS.keys())
    def test_overflowing_measure_file_is_one_validation_error(self, capsys, tmp_path, doc, message):
        # In a child with default warning filters too: no numpy warning line
        # comes before the message.
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "trivial", "--measure", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("validation error: ") and message in err and err.count("\n") == 1
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(lcmeasure.__file__).parents[1])
        run = subprocess.run([sys.executable, "-m", "lcsim", "trivial", "--measure", str(path)],
                             env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (EXIT_VALIDATION, "", err)

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
        # Integers too large for a float once escaped as OverflowError.
        ("uniqueness", {**GOOD_MODEL, "p1": {"samples": [10**400, 1]}}),
        ("uniqueness", {**GOOD_MODEL, "scale": 10**400}),
        ("trivial", 3),
    ],
    ids=["model-number", "samples-number", "builtin-list", "scale-null", "samples-huge-integer",
         "scale-huge-integer", "measure-number"],
)
def test_malformed_input_file_is_validation_error(capsys, tmp_path, command, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    flag = "--model" if command == "uniqueness" else "--measure"
    code, _, err = run_cli(capsys, command, flag, str(path))
    assert code == EXIT_VALIDATION
    assert "validation error" in err


#: Model and measure files whose numbers are not all JSON numbers, each with
#: the file number that the rule refuses. Each once loaded, its strings and
#: bools read as floats, and its command exited 0.
NON_NUMBER_FILES = {
    "samples-string": ("uniqueness", {**GOOD_MODEL, "p1": {"samples": ["1.0", 1.0, 0.5]}}, "profile samples"),
    "samples-true": ("uniqueness", {**GOOD_MODEL, "p1": {"samples": [1.0, 1.0, True]}}, "profile samples"),
    **{
        f"{key}-{kind}": (
            "trivial",
            {"n1": 1, "n2": 1, "m1": 1, "m2": 1, "PS": [[1.0]], "K1": [[1.0]], "K2": [[1.0]], key: [[bad]]},
            key,
        )
        for key in ("K1", "PS")
        for kind, bad in (("string", "1"), ("true", True))
    },
}


@pytest.mark.parametrize("command, doc, name", NON_NUMBER_FILES.values(), ids=NON_NUMBER_FILES.keys())
def test_file_numbers_must_be_json_numbers(capsys, tmp_path, command, doc, name):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    flags = ("--model", str(path), "--no-reconstruction") if command == "uniqueness" else ("--measure", str(path))
    code, out, err = run_cli(capsys, command, *flags)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == f"validation error: every entry of {name} must be a finite number\n"


#: Finite models whose quadrature would overflow. Each once printed numpy
#: RuntimeWarnings before its exit 3, or went on with nan tables; under
#: `python -W error` each ended in a traceback.
HUGE_MODELS = {
    "samples-times-count": ({**GOOD_MODEL, "p1": {"samples": [1e308, 1e308, 1.0]}}, "profile samples are too large"),
    "scale-times-peaks": ({**GOOD_MODEL, "scale": 1e308}, "model is too large"),
    "peak-times-two-pi": ({**GOOD_MODEL, "p1": {"samples": [5e307, 5e307, 1.0]}}, "model is too large"),
    "interpolation-slope": (
        {**GOOD_MODEL, "p1": {"samples": [1e307] + [0.0] * 999}, "scale": 1e-307},
        "profile samples are too large",
    ),
}


@pytest.mark.parametrize("doc, message", HUGE_MODELS.values(), ids=HUGE_MODELS.keys())
def test_huge_finite_model_is_one_validation_error(capsys, tmp_path, doc, message):
    # Warnings are errors here, in-process and in a `python -W error` child.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "uniqueness", "--model", str(path))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith("validation error: ") and message in err and err.count("\n") == 1
    env = {**os.environ, "PYTHONPATH": str(Path(models.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-W", "error", "-m", "lcsim", "uniqueness", "--model", str(path)],
                         env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (EXIT_VALIDATION, "", err)


@pytest.mark.parametrize(
    "argv, message",
    [
        # A pair count past MAX_PAIRS is refused before any block runs; the
        # estimator no longer allocates one product per pair.
        (("simulate", "--pairs", str(10**17), "--a", "0", "--b", "0"), "exceeds MAX_PAIRS"),
        (("trivial", "--random", "1", "--n1", "1000000000", "--n2", "1000000000"), "too large to allocate"),
    ],
    ids=["simulate-pairs", "trivial-dimensions"],
)
def test_input_too_large_to_allocate_is_validation_error(capsys, argv, message):
    # Both requests exceed any address space, so they fail before touching memory.
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_VALIDATION
    assert message in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        *(("simulate", "--a", "0", "--b", "0", "--mode", mode) for mode in protocol.EXPERIMENT_MODES),
        ("scan", "--grid", "2"),
        ("chsh",),
    ],
    ids=[*protocol.EXPERIMENT_MODES, "scan", "chsh"],
)
def test_pairs_past_max_pairs_are_refused_before_any_output(capsys, tmp_path, argv):
    # One pair more than 2**53 streams for years if nothing refuses it, so
    # this test hangs unless the config check comes before the first block.
    pairs = str(protocol.MAX_PAIRS + 1)
    out_file = tmp_path / "out"
    extra = ("--out", str(out_file)) if argv[0] != "chsh" else ()
    for args in ((*argv, "--pairs", pairs), (*argv, "--pairs", pairs, *extra)):
        code, out, err = run_cli(capsys, *args)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "exceeds MAX_PAIRS" in err
    assert not out_file.exists()
    ExperimentConfig(n=protocol.MAX_PAIRS, a=0.0, b=0.0)  # the cap itself is a valid pair count


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(text: str) -> list[list[str]]:
    """The arguments of every `lcsim` command in the fenced code blocks of
    `text`, wherever it stands on its line and up to the next shell operator
    or comment; lines with a `$`, such as shell loops over a variable, are
    skipped."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    commands = []
    for line in (line for block in blocks for line in block.splitlines() if "$" not in line):
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True  # runs of ();<>|& still come apart as operators
        words = list(lexer)
        for i in (i for i, word in enumerate(words) if word == "lcsim"):
            rest = words[i + 1:]
            commands.append(rest[:next((k for k, w in enumerate(rest) if set(w) <= set("();<>|&")), len(rest))])
    return commands


def test_readme_command_scan():
    text = "```sh\nlcsim analytic --a 0 --b 1  # note\nfor s in 1 2; do lcsim trivial --seed $s; done\n" \
           "cd src/lcsim/ && ls\nfor s in 1 2; do lcsim chsh --seed 3|head; done\n```\nlcsim outside --a block\n"
    assert readme_commands(text) == [["analytic", "--a", "0", "--b", "1"], ["chsh", "--seed", "3"]]


def test_readme_commands_parse():
    # Parsing only: a renamed or removed flag fails here before a reader finds it.
    argvs = readme_commands(README.read_text())
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv)
    assert {argv[0] for argv in argvs} >= {"chsh", "cosine-measure"}
    assert re.search(r"\bscripts[/\\]", README.read_text()) is None  # no path into a scripts directory


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_cached_parser_answers_as_fresh_ones(self, capsys, monkeypatch):
        # A usage error, a valid run and a validation error in sequence.
        argvs = [["trivial", "--random", "0"], ["trivial", "--random", "3", "--n1", "4", "--n2", "4"],
                 ["trivial", "--measure", "missing.json"]]

        def run_all():
            results = []
            for argv in argvs:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                results.append((code, *capsys.readouterr()))
            return results

        cached = run_all()
        assert [code for code, _, _ in cached] == [2, EXIT_OK, EXIT_VALIDATION]
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert run_all() == cached
