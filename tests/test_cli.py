import csv
import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from abplab import cli
from abplab.cli import _FLAGS, _MODES, _SUBCOMMANDS, main
from abplab.pucci import pucci_contact_bound
from abplab.report import CheckReport, check_eq, check_le, emit_csv, emit_json, emit_plotdata, seeded_rng


def _rule(kind, lhs, rhs, rel_tol, abs_tol):
    """The le/eq verdict from a row's own fields, written out independently."""
    if kind == "eq":
        return abs(lhs - rhs) <= rel_tol * max(abs(lhs), abs(rhs), 1.0) + abs_tol
    return lhs <= rhs * (1 + rel_tol) + abs_tol


def _csv_rows_reproduce_pass(text):
    rows = list(csv.DictReader(text.splitlines()))
    for row in rows:
        verdict = _rule(row["kind"], *(float(row[k]) for k in ("lhs", "rhs", "rel_tol", "abs_tol")))
        assert verdict == bool(int(row["pass"])), row
    return rows


class TestReports:
    def test_le_recompute(self):
        r = check_le("x", "anchor", 1.0, 2.0)
        assert r.passed
        r = check_le("x", "anchor", 3.0, 2.0)
        assert not r.passed
        # the verdict follows the stored sides; nothing can set it
        r.rhs = 3.0
        assert r.passed
        with pytest.raises(AttributeError):
            r.passed = False

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

    def test_csv_round_trip(self):
        reports = [check_le("a", "s1", 1.0, 2.0, rel_tol=1e-6),
                   check_eq("b", "s2", 1.0, 1.5, abs_tol=1e-3)]
        text = emit_csv(reports)
        assert text.split("\n")[0] == "name,anchor,kind,lhs,rhs,rel_tol,abs_tol,pass"
        rows = _csv_rows_reproduce_pass(text)
        assert [(r["name"], r["kind"], r["pass"]) for r in rows] == [("a", "le", "1"), ("b", "eq", "0")]

    def test_empty_csv_rejected(self):
        with pytest.raises(ValueError):
            emit_csv([])

    def test_plotdata(self):
        rows = [l.split() for l in emit_plotdata(([0.1, 0.2], [9.0, 9.1])).strip().split("\n")]
        assert [[float(a), float(b)] for a, b in rows] == [[0.1, 9.0], [0.2, 9.1]]
        with pytest.raises(ValueError):
            emit_plotdata(([], []))


# (argv, message, id): each flag that the selected mode of harnack-check or
# hfun does not read, given a value that mode would otherwise accept
MODE_REFUSALS = [
    (["harnack-check", "--which", "sup", "--p", "2"],
     "--p is not read by harnack-check --which sup", "sup-p"),
    (["harnack-check", "--which", "sup", "--r", "0.5"],
     "--r is not read by harnack-check --which sup", "sup-r"),
    (["harnack-check", "--which", "sup", "--samples", "10"],
     "--samples is not read by harnack-check --which sup", "sup-samples"),
    (["harnack-check", "--which", "sup", "--theta", "2.5"],
     "--theta is not read by harnack-check --which sup", "sup-theta"),
    (["harnack-check", "--which", "sub", "--r", "0.5"],
     "--r is not read by harnack-check --which sub", "sub-r"),
    (["harnack-check", "--which", "sub", "--samples", "10"],
     "--samples is not read by harnack-check --which sub", "sub-samples"),
    (["harnack-check", "--which", "sub", "--theta", "2.5"],
     "--theta is not read by harnack-check --which sub", "sub-theta"),
    (["harnack-check", "--which", "full", "--p", "2"],
     "--p is not read by harnack-check --which full", "full-p"),
    (["harnack-check", "--which", "full", "--r", "0.5"],
     "--r is not read by harnack-check --which full", "full-r"),
    (["harnack-check", "--which", "full", "--samples", "10"],
     "--samples is not read by harnack-check --which full", "full-samples"),
    (["harnack-check", "--which", "full", "--theta", "2.5"],
     "--theta is not read by harnack-check --which full", "full-theta"),
    (["harnack-check", "--which", "growth", "--p", "2"],
     "--p is not read by harnack-check --which growth", "growth-p"),
    (["harnack-check", "--which", "growth", "--samples", "10"],
     "--samples is not read by harnack-check --which growth", "growth-samples"),
    (["harnack-check", "--which", "growth", "--theta", "2.5"],
     "--theta is not read by harnack-check --which growth", "growth-theta"),
    (["harnack-check", "--which", "pucci", "--resolution", "32"],
     "--resolution is not read by harnack-check --which pucci", "pucci-resolution"),
    (["harnack-check", "--which", "pucci", "--p", "2"],
     "--p is not read by harnack-check --which pucci", "pucci-p"),
    (["harnack-check", "--which", "pucci", "--r", "0.5"],
     "--r is not read by harnack-check --which pucci", "pucci-r"),
    (["harnack-check", "--which", "pucci", "--N", "3"],
     "--N is not read by harnack-check --which pucci", "pucci-N"),
    (["harnack-check", "--r", "0.5"],
     "--r is not read by harnack-check --which sup", "default-sup-r"),
    (["hfun", "--samples", "64", "--dmax", "0.1"],
     "--dmax is not read by hfun without --fit", "hfun-dmax"),
    (["hfun", "--fit", "--samples", "8", "--d", "0.5"],
     "--d is not read by hfun --fit", "hfun-fit-d"),
    (["harnack-check", "--which=pucci", "--p=2", "--r", "0.5", "--resolution", "32"],
     "--p, --r, --resolution are not read by harnack-check --which pucci", "pucci-three"),
]

# a model flag that the chosen model does not read: --k off the sphere and
# the hyperboloid, --lambda off the gaussian plane (argv as flag-value pairs)
MODEL_REFUSALS = [
    (["doubling", "--model", "euclidean", "--k", "5"],
     "--k is not read by doubling --model euclidean", "doubling-euclidean-k"),
    (["doubling", "--model", "hyperbolic", "--lambda", "0.5"],
     "--lambda is not read by doubling --model hyperbolic", "doubling-hyperbolic-lambda"),
    (["abp-check", "--k", "2"], "--k is not read by abp-check --model euclidean",
     "abp-default-model-k"),
    (["contact", "--model", "gaussian", "--k", "2"],
     "--k is not read by contact --model gaussian", "contact-gaussian-k"),
    (["barrier-check", "--model", "sphere", "--lambda", "1"],
     "--lambda is not read by barrier-check --model sphere", "barrier-sphere-lambda"),
    (["harnack-check", "--which", "pucci", "--model", "euclidean", "--lambda", "2"],
     "--lambda is not read by harnack-check --model euclidean", "harnack-euclidean-lambda"),
    (["hfun", "--model", "sphere", "--lambda", "0"],
     "--lambda is not read by hfun --model sphere", "hfun-sphere-lambda"),
    (["doubling", "--model", "euclidean", "--k", "1", "--lambda", "1"],
     "--k, --lambda are not read by doubling --model euclidean", "doubling-euclidean-both"),
]


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
    @pytest.mark.parametrize("argv, message", [
        (["harnack-check", "--R", "1e150", "--which", "sup"],
         "poisson solve on 64x64 over radius 2e+150"),
        (["doubling", "--N", "1100", "--samples", "1"], "doubling bound"),
        (["doubling", "--R", "1e200", "--samples", "1"], "nu[B_r] leaves the float64 range at r = "
         "2.30551e+199 for R = 1e+200"),
        (["doubling", "--R", "1e308", "--samples", "1"],
         "4R leaves the float64 range for R = 1e+308"),
        (["constants", "--R", "1e308"], "16R leaves the float64 range for R = 1e+308"),
    ], ids=["poisson-R-1e150", "doubling-N-1100", "doubling-R-1e200", "doubling-R-1e308",
            "constants-R-1e308"])
    def test_float64_range_refused_by_name(self, argv, message, capsys):
        # a NaN Poisson residual and an OverflowError in the doubling bound
        # ended in numpy's empty-reduction message and in a traceback; huge
        # radii ended in FAILs at lhs = nan after numpy's overflow warnings
        # (the squared distance of the drawn centre, the ball measure), or
        # in a refusal that named log D = nan where 4R was inf
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "leaves the float64 range" in err

    @pytest.mark.parametrize("argv, message", [
        (["contact", "--r", "1e150", "--b", "1e150", "--resolution", "17"], "u has non-finite values"),
        (["contact", "--r", "1e150", "--b", "1e150", "--resolution", "64"], "u has non-finite values"),
        (["abp-check", "--r", "1e150", "--b", "1e150"], "u has non-finite values"),
        (["hfun", "--fit", "--dmax", "1e150"], "powers d^k, k <= 4, leave float64"),
    ], ids=["contact-17", "contact-64", "abp-check", "hfun-fit"])
    def test_overflowed_input_refused_by_name(self, argv, message, capsys):
        # u overflowed to +inf let a padding slot win the scan (an IndexError
        # at 17, garbage pairs at 64, a FAIL by accident), and the fit's
        # overflowed powers ended in numpy's "SVD did not converge"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_doubling_runs_until_its_bound_leaves_float64(self, capsys):
        # at N = 1000 the bound D (r1/r2)^(N eta) is inf, which passed through
        # the two-ball term alone (lhs 3.7e-301); at N = 700 it is finite
        assert main(["doubling", "--N", "700", "--samples", "1"]) == 0
        capsys.readouterr()
        assert main(["doubling", "--N", "1000", "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert "doubling bound" in captured.err and "leaves the float64 range" in captured.err
        assert captured.out == ""

    def test_gaussian_doubling_draws_inside_the_ricci_reach(self, capsys):
        # lam = 1, N = 4, K = 0: Ric_{N,nu} >= 0 holds out to rho = sqrt(2) only
        assert main(["doubling", "--model", "gaussian", "--N", "4", "--R", "0.9",
                     "--samples", "100"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        *(refusal[0] for refusal in MODE_REFUSALS),
        ["abp-check", "--r", "-1"],
        ["barrier-check", "--r", "0"],
        ["pucci", "--theta", "0"],
        ["harnack-check", "--which", "pucci", "--theta", "0.5"],
        ["hfun", "--model", "hyperbolic", "--k", "1", "--d", "0", "--samples", "64"],
        ["hfun", "--model", "sphere", "--k", "1", "--d", "-0.5", "--samples", "64"],
        ["doubling", "--samples", "0"],
        ["pucci", "--samples", "0"],
        ["harnack-check", "--which", "pucci", "--samples", "0"],
        ["barrier-check", "--model", "sphere", "--k", "1", "--K", "1", "--r", "3.5"],
        ["hfun", "--samples", "33"],
        ["hfun", "--fit", "--dmax", "-1"],
        ["hfun", "--fit", "--samples", "3"],
        ["doubling", "--K", "inf", "--samples", "2"],
        ["constants", "--K", "nan"],
        ["barrier-check", "--alpha", "nan"],
        ["doubling", "--model", "gaussian", "--lambda", "inf"],
        ["constants", "--N", "400"],
        ["constants", "--K", "1e6"],
        ["constants", "--R", "1e3", "--K", "1"],
        ["barrier-check", "--alpha", "1e6"],
        ["harnack-check", "--which", "growth", "--r", "1e-300"],
        ["harnack-check", "--which", "growth", "--resolution", "8"],
        ["doubling", "--N", "inf", "--samples", "2"],
        ["doubling", "--model", "gaussian", "--N", "2", "--samples", "2"],
        ["doubling", "--R", "1e-200", "--samples", "2"],
        ["pucci", "--theta", "1e308"],
        ["harnack-check", "--which", "pucci", "--theta", "1e308"],
        ["hfun", "--model", "gaussian", "--samples", "64"],
        ["harnack-check", "--which", "sup", "--N", "inf", "--resolution", "32"],
    ], ids=[*(refusal[2] for refusal in MODE_REFUSALS),
            "abp-r-negative", "barrier-r-zero", "pucci-theta-0", "harnack-pucci-theta-half",
            "hfun-d-zero", "hfun-d-negative", "doubling-samples-0", "pucci-samples-0",
            "harnack-pucci-samples-0", "barrier-r-beyond-cut", "hfun-samples-odd",
            "hfun-dmax-negative", "hfun-fit-samples-3", "doubling-K-inf", "constants-K-nan",
            "barrier-alpha-nan", "doubling-lambda-inf", "constants-N-400", "constants-K-1e6",
            "constants-R-1e3", "barrier-alpha-1e6", "growth-r-1e-300", "growth-resolution-8",
            "doubling-N-inf", "doubling-gaussian-N-dim", "doubling-measure-underflow",
            "pucci-theta-overflow", "harnack-pucci-theta-overflow", "hfun-weighted",
            "harnack-sup-N-inf"])
    def test_bad_input_exits_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv,message,_", MODE_REFUSALS, ids=[r[2] for r in MODE_REFUSALS])
    def test_flag_the_mode_does_not_read_is_named(self, argv, message, _, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config,message", [
        ({"experiment": "hfun", "dmax": 7, "samples": 64}, "--dmax is not read by hfun without --fit"),
        ({"experiment": "harnack-check", "which": "growth", "theta": 9},
         "--theta is not read by harnack-check --which growth"),
    ], ids=["hfun-dmax", "growth-theta"])
    def test_config_key_the_mode_does_not_read_exits_two(self, config, message, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**config, "out": str(tmp_path / "out")}))
        assert main(["--config", str(cfg)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mode_flags_are_declared_by_their_subcommand(self):
        # each mode's flags, and the flag that selects the mode, are in the
        # subcommand's row, and the table names every mode the flag can take
        for sub, modes in _MODES.items():
            row = _SUBCOMMANDS[sub][1].split()
            for flag, reads in modes:
                assert flag in row and {f for r in reads.values() for f in r.split()} <= set(row)
                assert set(reads) == set(_FLAGS[flag].get("choices", (False, True)))

    def test_every_subcommand_with_a_model_refuses_its_unread_flags(self):
        assert sorted(sub for sub, modes in _MODES.items() if any(f == "model" for f, _ in modes)) \
            == sorted(sub for sub, (_, row) in _SUBCOMMANDS.items() if "model" in row.split())

    @pytest.mark.parametrize("via", ["flags", "config"])
    @pytest.mark.parametrize("argv,message", [r[:2] for r in MODEL_REFUSALS],
                             ids=[r[2] for r in MODEL_REFUSALS])
    def test_model_flag_the_model_does_not_read_is_named(self, argv, message, via, tmp_path,
                                                         capsys):
        # these ran with the flag ignored: doubling --model euclidean --k 5
        # passed, and doubling --model hyperbolic --lambda 0.5 ran
        out = tmp_path / "out"
        if via == "config":
            cfg = tmp_path / "run.json"
            keys = dict(zip((f[2:] for f in argv[1::2]), argv[2::2]))
            cfg.write_text(json.dumps({"experiment": argv[0], **keys, "out": str(out)}))
            argv = ["--config", str(cfg)]
        else:
            argv = [*argv, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["barrier-check", "--model", "euclidean", "--r", "1e6"],
        ["barrier-check", "--model", "euclidean", "--r", "1e-6"],
        ["hfun", "--model", "gaussian", "--lambda", "0", "--samples", "64"],
        ["harnack-check", "--which", "growth", "--resolution", "10"],
        ["harnack-check", "--which", "growth", "--resolution", "16"],
        # the model's own origin is on the model at every curvature
        ["contact", "--model", "sphere", "--k", "1e-11"],
        ["contact", "--model", "hyperbolic", "--k", "1e-13"],
        ["abp-check", "--model", "sphere", "--k", "1e-10"],
        # ricci-comparison's rounding allowance still passes the defaults
        ["barrier-check", "--model", "euclidean"],
        ["barrier-check", "--model", "sphere"],
        ["barrier-check", "--model", "gaussian"],
    ], ids=["barrier-r-1e6", "barrier-r-1e-6", "hfun-gaussian-lambda-0", "growth-resolution-10",
            "growth-resolution-16", "contact-sphere-k-1e-11", "contact-hyperbolic-k-1e-13",
            "abp-sphere-k-1e-10", "barrier-euclidean", "barrier-sphere", "barrier-gaussian"])
    def test_edge_input_runs(self, argv, capsys):
        assert main(argv) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("k", ["1e-9", "1e-10", "1e-12"])
    def test_small_curvature_ricci_violation_fails(self, k, capsys):
        # the hyperboloid at the default K = 0: ricci-comparison fails, by
        # its gap k r^2/3, and every other check passes
        assert main(["barrier-check", "--model", "hyperbolic", "--k", k]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] ricci-comparison" in out and out.count("[FAIL]") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r,end", [("1e300", "large"), ("1e-300", "small")])
    def test_radius_beyond_float64_exits_two(self, r, end, capsys):
        # the barrier's sampled Laplacian would be NaN there
        assert main(["barrier-check", "--model", "euclidean", "--r", r]) == 2
        captured = capsys.readouterr()
        assert f"radius {float(r):g} is too {end} for the float64 range" in captured.err
        assert captured.out == ""

    def test_growth_grid_without_a_core_node_exits_two(self, tmp_path, capsys):
        # at 8^2 the first ring, 0.0625, lies outside B_{r/18}: the check
        # exited 1 there, reading an empty core as a failed bound
        out = tmp_path / "out"
        assert main(["harnack-check", "--which", "growth", "--resolution", "8",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "lies in B_{r/18}(x0), radius 0.0555556" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["contact", "--model", "hyperbolic", "--k", "1"],
        ["abp-check", "--model", "hyperbolic", "--k", "1", "--K", "1"],
        ["harnack-check", "--which", "growth", "--model", "hyperbolic", "--k", "1", "--K", "1"],
    ], ids=lambda argv: argv[0])
    def test_unresolved_ring_gap_exits_two(self, argv, tmp_path, capsys):
        # at r = 20 the stored hyperboloid points cannot resolve a ring gap;
        # abp-check passed there with rhs 2.6e26 against lhs 1.98e4
        out = tmp_path / "out"
        assert main([*argv, "--r", "20", "--resolution", "32", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "radius 20 is too large for a contact scan" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_resolved_hyperboloid_contact_runs(self, capsys):
        # r = 10 lies below the first refused radius at 32^2, 12.75
        for r in ("5", "10"):
            assert main(["contact", "--model", "hyperbolic", "--k", "1", "--r", r,
                         "--resolution", "32"]) == 0
            assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["constants", "--resolution", "8"],
        ["contact", "--K", "1"],
        ["abp-check", "--samples", "5"],
        ["barrier-check", "--resolution", "8"],
        ["doubling", "--r", "0.5"],
        ["harnack-check", "--d", "0.5"],
        ["hfun", "--resolution", "8"],
        ["pucci", "--model", "sphere"],
        ["all", "--which", "sup"],
    ], ids=lambda argv: argv[0])
    def test_unread_flag_exits_two(self, argv, tmp_path, capsys):
        # a flag the subcommand would ignore is a usage error, not a silent no-op
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not out.exists()

    def test_abp_check_takes_no_capital_r(self, capsys):
        # abp-check's params take the ball radius --r; no verdict reads R
        with pytest.raises(SystemExit) as exc:
            main(["abp-check", "--R", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --R 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["harnack-check", "--which", "pucci", "--samples", "10"],
        ["barrier-check", "--K", "50", "--R", "3"],
    ], ids=["harnack-pucci-N-inf", "barrier-K-50-R-3"])
    def test_no_unread_ledger_is_built(self, argv, capsys):
        # the full ledger needs N < inf and a representable M; these runs read
        # none of it, so its limits do not turn them into usage errors
        assert main(argv) in (0, 1)
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_hyperbolic_radius_beyond_float64_exits_two(self, capsys):
        # the hyperboloid has no cut radius; its exp leaves float64 instead
        assert main(["barrier-check", "--model", "hyperbolic", "--k", "1", "--r", "1e160"]) == 2
        err = capsys.readouterr().err
        assert "too large for the float64 range" in err and "cut radius" not in err

    @pytest.mark.parametrize("argv", [
        ["abp-check", "--s", "3", "--resolution", "32"],
        ["hfun", "--fit", "--dm", "0.1", "--samples", "8"],
        ["doubling", "--s", "3"],
        ["harnack-check", "--wh=growth", "--resolution", "48"],
    ], ids=["abp-check-s", "hfun-dm", "doubling-s", "harnack-wh"])
    def test_flag_prefix_exits_two(self, argv, tmp_path, capsys):
        # a prefix of a flag is no flag: it would otherwise run as --seed or --dmax
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_prefix_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"res": 16, "out": str(tmp_path / "out")}))
        assert main(["--config", str(cfg), "abp-check"]) == 2
        assert "config error: unknown config keys: ['res']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["abp-check"], ["harnack-check", "--which", "growth"]],
                             ids=["abp-check", "growth"])
    def test_weight_free_gaussian_matches_euclidean(self, argv, tmp_path):
        # lambda = 0 keys the weight off, N = 2 included
        reports = []
        for i, model in enumerate((["gaussian", "--lambda", "0"], ["euclidean"])):
            out = tmp_path / str(i)
            assert main([*argv, "--model", *model, "--N", "2", "--resolution", "48",
                         "--out", str(out)]) == 0
            reports.append(json.loads(next(out.glob("*_report.json")).read_text())["reports"])
        assert reports[0] == reports[1]

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"experiment": "constants", "bogus_key": 1}')
        code = main(["--config", str(cfg), "constants"])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not any(p.name.endswith("report.json") for p in tmp_path.iterdir())

    def test_config_key_the_subcommand_does_not_read_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"experiment": "constants", "resolution": 5,
                                   "out": str(tmp_path / "out")}))
        assert main(["--config", str(cfg)]) == 2
        assert "config error: unknown config keys: ['resolution']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("flags", [["--u", "random", "--a", "1e300"],
                                       ["--u", "quadratic", "--b", "1e300"]],
                             ids=["random-a", "quadratic-b"])
    def test_overflowing_refinement_is_a_named_failure(self, flags, tmp_path, capsys):
        # Newton's h11 h22 overflows and every refined point is NaN; these runs
        # passed on the node quadrature with a NaN rhs_transport
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["abp-check", *flags, "--out", str(out)])
        assert code == 1
        assert "[FAIL] measure-estimate" in capsys.readouterr().out
        rep = json.loads((out / "abp_check_report.json").read_text())["reports"][0]
        n = rep["diagnostics"]["n_vertices"]
        assert rep["diagnostics"]["numerical_failure"] == (
            f"{n} of {n} refined contact points are not finite")

    def test_sub_p_below_p0_is_a_named_failure(self, tmp_path, capsys):
        # --p reaches the library as given; p < p0 is the check's own premise
        out = tmp_path / "out"
        code = main(["harnack-check", "--which", "sub", "--p", "-1", "--out", str(out)])
        assert code == 1
        assert "[FAIL] harnack-sub" in capsys.readouterr().out
        rep = json.loads((out / "harnack_check_report.json").read_text())["reports"][0]
        assert rep["diagnostics"]["violated_premise"] == "p >= p0"
        assert rep["diagnostics"]["unsupported_p"] == -1.0

    def test_non_object_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["--config", str(cfg), "constants"]) == 2
        assert "config error" in capsys.readouterr().err


def readme_examples() -> list:
    """The argv of each `abplab` line of the README's sh blocks, comments dropped."""
    examples, inside = [], False
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            inside = line == "```sh"
        elif inside and line.startswith("abplab "):
            examples.append(shlex.split(line, comments=True)[1:])
    return examples


README_EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 12


@pytest.mark.parametrize("argv", README_EXAMPLES,
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(README_EXAMPLES)])
def test_readme_example_runs(argv, tmp_path, monkeypatch):
    # documented usage stays accepted and passes; reports go under tmp_path
    monkeypatch.delenv("ABPLAB_OUT", raising=False)
    if "--out" in argv:
        argv = argv[:argv.index("--out")] + argv[argv.index("--out") + 2:]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / f"{argv[0].replace('-', '_')}_report.json").exists()


def _pairs_csv_per_row(Y, X, level, residuals):
    """The pairs table as a per-row f-string formatter wrote it: the oracle
    of cli._pairs_csv."""
    lines = ["y_coords,x_coords,min_value,residual"]
    for y, x, c, res in zip(Y.tolist(), X.tolist(), level.tolist(), residuals.tolist()):
        lines.append(f"{';'.join(map(repr, y))},{';'.join(map(repr, x))},{c!r},{res!r}")
    return "\n".join(lines) + "\n"


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

    def test_csv_rows_reproduce_their_pass(self, tmp_path):
        # this row passes only through its abs_tol, which a single tol column dropped
        out = tmp_path / "abp"
        assert main(["abp-check", "--model", "sphere", "--k", "1", "--r", "0.5", "--u", "random",
                     "--seed", "1", "--resolution", "96", "--format", "csv", "--out", str(out)]) == 0
        rows = _csv_rows_reproduce_pass((out / "abp_check_report.csv").read_text())
        assert [r["pass"] for r in rows] == ["1"]

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

    @pytest.mark.parametrize("model", ["euclidean", "sphere", "hyperbolic"])
    def test_contact_pairs_csv_matches_the_per_row_formatter(self, model, tmp_path, monkeypatch):
        # the table written is the per-row formatter's text, byte for byte,
        # on the arrays the command hands over, 2-D and 3-D points alike
        seen, pairs_csv = [], cli._pairs_csv

        def recorded(*arrays):
            seen.append(arrays)
            return pairs_csv(*arrays)

        monkeypatch.setattr(cli, "_pairs_csv", recorded)
        out = tmp_path / "c"
        assert main(["contact", "--model", model, "--r", "0.5", "--resolution", "24",
                     "--out", str(out)]) == 0
        (arrays,) = seen
        assert len(arrays[2]) > 0
        assert (out / "contact_pairs.csv").read_text() == _pairs_csv_per_row(*arrays)

    @pytest.mark.parametrize("d, n", [(2, 0), (2, 1), (3, 4)])
    def test_pairs_csv_keeps_every_repr(self, d, n):
        # signed zeros, subnormals, the float64 ends and non-finite values
        specials = [0.0, -0.0, 5e-324, 1e-300, 1.7976931348623157e308, np.nan, np.inf,
                    -np.inf, 0.1, 1.0 / 3.0]
        flat = np.resize(np.array(specials), n * (2 * d + 2))
        Y, X = flat[:n * d].reshape(n, d), flat[n * d:2 * n * d].reshape(n, d)
        level, residuals = flat[2 * n * d:2 * n * d + n], flat[2 * n * d + n:]
        assert cli._pairs_csv(Y, X, level, residuals) == _pairs_csv_per_row(Y, X, level, residuals)

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

    @pytest.mark.parametrize("seed", [1, 11])
    def test_pucci_battery_is_least_margin_sample(self, tmp_path, seed):
        # the battery reports the per-matrix check at the sample with the least
        # margin, so it fails exactly when one of them fails
        out = tmp_path / "hp"
        assert main(["harnack-check", "--which", "pucci", "--samples", "300",
                     "--theta", "2.5", "--seed", str(seed), "--out", str(out)]) == 0
        rep = json.loads((out / "harnack_check_report.json").read_text())["reports"][0]
        assert rep["name"] == "pucci-contact-battery"
        rng = seeded_rng(seed, "harnack-pucci")
        W, H = rng.normal(size=(2, 300, 2, 2))
        a = rng.uniform(0.1, 3.0, size=300)
        single = [pucci_contact_bound(w @ w.T - x * 0.5 * (h + h.T), 0.5 * (h + h.T), x, 2.5)
                  for w, h, x in zip(W, H, a)]
        assert all(r.passed for r in single)
        worst = min(single, key=lambda r: r.rhs + r.abs_tol - r.lhs)
        assert (rep["lhs"], rep["rhs"], rep["abs_tol"], rep["pass"]) == \
            (worst.lhs, worst.rhs, worst.abs_tol, True)
        assert rep["diagnostics"]["contact_min_eig"] == \
            min(r.diagnostics["contact_min_eig"] for r in single)


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
