import json
import os

import numpy as np
import pytest

from abplab.cli import main
from abplab.report import CheckReport, check_eq, check_le, emit_csv, emit_json, emit_plotdata


class TestReports:
    def test_le_recompute(self):
        r = check_le("x", "anchor", 1.0, 2.0)
        assert r.passed and r.recompute()
        r = check_le("x", "anchor", 3.0, 2.0)
        assert not r.passed

    def test_eq_tolerance(self):
        r = check_eq("x", "anchor", 1.0, 1.0 + 1e-12, abs_tol=1e-10)
        assert r.passed
        r = check_eq("x", "anchor", 1.0, 1.1, abs_tol=1e-10)
        assert not r.passed

    def test_nonfinite_serialization(self):
        r = check_le("x", "anchor", 0.0, float("inf"))
        text = emit_json([r])
        payload = json.loads(text)
        assert payload["reports"][0]["rhs"] == "inf"

    def test_csv_round_trip(self, tmp_path):
        reports = [check_le("a", "s1", 1.0, 2.0, rel_tol=1e-6),
                   check_eq("b", "s2", 1.0, 1.5, abs_tol=1e-3)]
        path = tmp_path / "r.csv"
        emit_csv(reports, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "name,anchor,lhs,rhs,tol,pass"
        for line, rep in zip(lines[1:], reports):
            name, anchor, lhs, rhs, tol, passed = line.split(",")
            assert name == rep.name
            recomputed = (float(lhs) <= float(rhs) * (1 + float(tol))) if rep.kind == "le" \
                else abs(float(lhs) - float(rhs)) <= float(tol)
            assert recomputed == bool(int(passed))

    def test_empty_csv_rejected(self):
        with pytest.raises(ValueError):
            emit_csv([])

    def test_plotdata(self, tmp_path):
        path = tmp_path / "series.dat"
        emit_plotdata(([0.1, 0.2], [9.0, 9.1]), str(path))
        rows = [l.split() for l in path.read_text().strip().split("\n")]
        assert [[float(a), float(b)] for a, b in rows] == [[0.1, 9.0], [0.2, 9.1]]
        with pytest.raises(ValueError):
            emit_plotdata(([], []), str(tmp_path / "empty.dat"))


class TestCliExitCodes:
    def test_pass_run_exits_zero(self, capsys):
        assert main(["constants", "--K", "0", "--N", "2", "--R", "1"]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out

    def test_failing_check_exits_one(self, capsys):
        # hyperbolic geometry with K = 0 violates the curvature premise
        code = main(["abp-check", "--model", "hyperbolic", "--k", "1", "--K", "0",
                     "--N", "2", "--r", "0.5", "--resolution", "64"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["abp-check", "--r", "-1"],
        ["barrier-check", "--r", "0"],
        ["pucci", "--theta", "0"],
        ["harnack-check", "--which", "pucci", "--theta", "0.5"],
    ], ids=["abp-r-negative", "barrier-r-zero", "pucci-theta-0", "harnack-pucci-theta-half"])
    def test_bad_input_exits_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and captured.out == ""

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"experiment": "constants", "bogus_key": 1}')
        code = main(["--config", str(cfg), "constants"])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not any(p.name.endswith("report.json") for p in tmp_path.iterdir())

    def test_unparsable_config_exits_two(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["--config", str(cfg), "constants"]) == 2

    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps({"K": 1.0, "N": 2, "R": 1.0}))
        assert main(["--config", str(cfg), "constants"]) == 0

    @staticmethod
    def _pucci_samples(tmp_path, config, argv):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**config, "out": str(out)}))
        assert main(["--config", str(cfg), *argv]) == 0
        rep = json.loads((out / "pucci_report.json").read_text())["reports"][0]
        return rep["diagnostics"]["samples"]

    def test_explicit_flag_beats_config(self, tmp_path):
        assert self._pucci_samples(tmp_path, {"samples": 5}, ["pucci", "--samples", "7"]) == 7

    def test_config_selects_experiment(self, tmp_path):
        assert self._pucci_samples(tmp_path, {"experiment": "pucci", "samples": 5}, []) == 5

    def test_config_string_value_is_typed(self, tmp_path):
        assert self._pucci_samples(tmp_path, {"samples": "5"}, ["pucci"]) == 5

    def test_config_bad_value_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"samples": "five"}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "pucci"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("which", ["sup", "sub", "full"])
    def test_poisson_failure_is_a_named_failure(self, which, tmp_path, monkeypatch, capsys):
        def solve_poisson(prob):
            raise RuntimeError("poisson solve did not reach tolerance: residual 1.000e+00")

        monkeypatch.setattr("abplab.cli.solve_poisson", solve_poisson)
        out = tmp_path / "out"
        code = main(["harnack-check", "--which", which, "--out", str(out)])
        assert code == 1
        assert f"[FAIL] harnack-{which}" in capsys.readouterr().out
        rep = json.loads((out / "harnack_check_report.json").read_text())["reports"][0]
        assert not rep["pass"]
        assert rep["diagnostics"]["numerical_failure"].startswith("poisson solve did not reach")

    def test_non_object_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["--config", str(cfg), "constants"]) == 2
        assert "config error" in capsys.readouterr().err


class TestCliOutputs:
    def test_report_files_written(self, tmp_path):
        out = tmp_path / "results"
        code = main(["constants", "--K", "0.5", "--N", "3", "--R", "1",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        data = json.loads((out / "constants_report.json").read_text())
        assert data["experiment"] == "constants"
        assert len(data["reports"]) == 5
        assert (out / "constants_report.csv").exists()

    def test_env_override(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("ABPLAB_OUT", str(env_dir))
        assert main(["constants", "--K", "0", "--N", "2", "--R", "1",
                     "--out", str(tmp_path / "ignored")]) == 0
        assert (env_dir / "constants_report.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_contact_pairs_csv(self, tmp_path):
        out = tmp_path / "c"
        assert main(["contact", "--resolution", "32", "--out", str(out)]) == 0
        header = (out / "contact_pairs.csv").read_text().split("\n")[0]
        assert header == "y_coords,x_coords,min_value,residual"

    def test_abp_check_node_quadrature_at_192(self, tmp_path):
        # the verdict rests on the contact-node quadrature at every resolution
        out = tmp_path / "abp"
        assert main(["abp-check", "--model", "euclidean", "--u", "random", "--seed", "3",
                     "--resolution", "192", "--out", str(out)]) == 0
        rep = json.loads((out / "abp_check_report.json").read_text())["reports"][0]
        assert rep["diagnostics"]["verdict_basis"] == "node_quadrature"
        assert rep["diagnostics"]["set_stride"] == 1

    def test_hfun_series_file(self, tmp_path):
        out = tmp_path / "h"
        assert main(["hfun", "--model", "sphere", "--k", "1", "--fit",
                     "--dmax", "0.12", "--samples", "16", "--out", str(out)]) == 0
        rows = (out / "hfun_series.dat").read_text().strip().split("\n")
        assert len(rows) == 16
        x, y = map(float, rows[0].split())
        assert y == pytest.approx(9.0 - 3.0 * x * x, rel=1e-3)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["doubling", "--model", "hyperbolic", "--k", "1", "--K", "1", "--N", "2",
         "--R", "0.8", "--samples", "10", "--seed", "42"],
        ["pucci", "--samples", "50", "--seed", "7"],
        ["abp-check", "--model", "euclidean", "--u", "random", "--seed", "3",
         "--resolution", "48"],
    ], ids=["doubling", "pucci", "abp-random"])
    def test_same_seed_byte_identical(self, tmp_path, argv):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            main(argv + ["--out", str(out)])
            name = argv[0].replace("-", "_")
            outs.append((out / f"{name}_report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_different_seed_differs(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            main(["doubling", "--samples", "5", "--seed", seed, "--out", str(out)])
            outs.append((out / "doubling_report.json").read_bytes())
        assert outs[0] != outs[1]
