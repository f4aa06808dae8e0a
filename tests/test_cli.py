import math
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

import kstruve
from kstruve import cli
from kstruve.cli import (
    EXIT_DISAGREE,
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from kstruve._floatfmt import _BLOCK as BLOCK
from kstruve._floatfmt import csv_rows
from kstruve.kinetics import KineticProblem, adjudicate, solve_closed_form
from kstruve.specfun import TruncationPolicy, struve_h_info
from kstruve.transforms import TimeGrid
from reference_writers import reference_columns, reference_csv, reference_points


def _read(path):
    return path.read_text(encoding="utf-8")


def _data_rows(text):
    return [
        line.split(",")
        for line in text.splitlines()
        if line and not line.startswith("#") and not line[0].isalpha() and line[0] != "t"
    ]


class TestEval:
    def test_struve_table(self, tmp_path):
        out = tmp_path / "tab"
        rc = main(["eval", "--fn", "struve", "--p", "0", "--x", "0.5,1.0", "--out", str(out)])
        assert rc == EXIT_OK
        text = _read(tmp_path / "tab.csv")
        lines = text.splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "x,value,terms_used"
        assert len(lines) == 4
        x, value, used = lines[3].split(",")
        assert float(x) == 1.0
        assert float(value) == pytest.approx(0.56865662704828795, rel=1e-13)
        assert int(used) >= 1

    def test_kgamma_table(self, tmp_path):
        out = tmp_path / "kg"
        rc = main(["eval", "--fn", "kgamma", "--k", "2", "--gamma", "3.0", "--out", str(out)])
        assert rc == EXIT_OK
        rows = _data_rows(_read(tmp_path / "kg.csv"))
        assert float(rows[0][1]) == pytest.approx(1.2533141373155003, rel=1e-13)

    def test_kgamma_overflow_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "kg"
        rc = main(["eval", "--fn", "kgamma", "--gamma", "300", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "300" in err
        assert not (tmp_path / "kg.csv").exists()

    def test_mittag_leffler_table(self, tmp_path):
        out = tmp_path / "ml"
        rc = main(
            ["eval", "--fn", "mittag_leffler", "--alpha", "1", "--beta", "1", "--z", "1.0", "--out", str(out)]
        )
        assert rc == EXIT_OK
        rows = _data_rows(_read(tmp_path / "ml.csv"))
        assert float(rows[0][1]) == pytest.approx(math.e, rel=1e-12)

    def test_sumudu_image_reports_series_terms(self, tmp_path):
        # the 2Psi2 series at z = -u^2/4 stops on the tolerance, not the budget
        out = tmp_path / "su"
        rc = main(["eval", "--fn", "sumudu_kstruve", "--u", "0.01,0.5", "--out", str(out)])
        assert rc == EXIT_OK
        rows = _data_rows(_read(tmp_path / "su.csv"))
        assert [int(r[2]) for r in rows] == [5, 27]

    def test_subnormal_argument(self, tmp_path):
        out = tmp_path / "sub"
        argv = ["eval", "--fn", "kstruve", "--x", "5e-324", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert main(argv[:-2] + ["--nu", "-0.5", "--out", str(out)]) == EXIT_OK
        # nu/k = -1/2: sqrt(2x/pi)
        x, value, used = _data_rows(_read(tmp_path / "sub.csv"))[0]
        assert float(value) == pytest.approx(math.sqrt(2 * 5e-324 / math.pi), rel=1e-14)
        assert used == "1"

    def test_overflowing_argument_is_numerical_failure(self, tmp_path, capsys):
        # (x/2)^2 overflows; one term used to write nan and exit 0
        out = tmp_path / "big"
        rc = main(["eval", "--fn", "kstruve", "--x", "1e300", "--max-terms", "1", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "overflows a double at x = 1e+300" in capsys.readouterr().err
        assert not (tmp_path / "big.csv").exists()

    def test_domain_error_exit_code(self, tmp_path):
        rc = main(["eval", "--fn", "struve", "--p", "-2.0", "--x", "1.0", "--out", str(tmp_path / "bad")])
        assert rc == EXIT_INPUT

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--fn", "struve", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_malformed_float_list(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--fn", "struve", "--x", "1.0,zebra"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["eval", "--fn", "struve", f"--{name}={text}"] for name in ("x", "z", "gamma", "u")
         for text in (",", "", ",,")]
        + [["sweep", "--param", "nu", "--values", ","]],
    )
    def test_empty_float_list(self, argv, tmp_path):
        # an empty list used to write a CSV holding only its header
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())


class TestNegativeValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--c", "-1e-3", "--n-points", "4"],
            ["eval", "--fn", "struve", "--p", "1", "--x", "-1,-2"],
            ["sweep", "--param", "c", "--values", "-1,1", "--n-points", "4"],
            ["eval", "--fn", "mittag_leffler", "--z", "-0.05,-0.5"],
        ],
    )
    def test_value_after_its_flag_reads_as_the_equals_form(self, argv, tmp_path):
        # argparse alone took the value for an option: "expected one argument"
        out = ["--out", str(tmp_path / "t")]
        i = next(i for i, token in enumerate(argv) if re.match(r"-[0-9.]", token))
        assert main(argv + out) == EXIT_OK
        spaced = (tmp_path / "t.csv").read_bytes()
        assert main(argv[: i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1 :] + out) == EXIT_OK
        assert (tmp_path / "t.csv").read_bytes() == spaced

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--fn", "struve", "--x", "--out", "t"],
            ["eval", "--fn", "struve", "--frobnicate", "-1"],
            ["solve", "--c"],
        ],
    )
    def test_flag_without_value_is_usage_error(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--fn", "struve", "--max-t", "3"],
            ["solve", "--n-p", "4"],
            ["solve", "--t-m", "-1e-3"],
            ["validate", "--n-p", "8"],
            ["figures", "--whi", "1"],
            ["sweep", "--param", "nu", "--values", "0.5", "--n-p", "4"],
        ],
    )
    def test_abbreviated_option_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        # subcommand options were taken by unique prefix, and an abbreviated
        # flag before a negative value read as "expected one argument"
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestEvalKernels:
    def test_kernels_are_read_through_module_names(self, tmp_path, monkeypatch):
        # a wrapper bound to a cli name (a tracer's, say) must see eval's calls
        calls = []
        names = ("struve_h_info", "k_struve_info", "mittag_leffler_info", "k_gamma",
                 "_sumudu_kstruve_image")
        for name in names:
            def counted(*args, _kernel=getattr(cli, name), _name=name):
                calls.append(_name)
                return _kernel(*args)

            monkeypatch.setattr(cli, name, counted)
        lists = ["--x", "1,2", "--z", "1,2", "--gamma", "1,2", "--u", "0.1,0.2"]
        for fn in ("struve", "kstruve", "mittag_leffler", "kgamma", "sumudu_kstruve"):
            assert main(["eval", "--fn", fn, *lists, "--out", str(tmp_path / fn)]) == EXIT_OK
        assert calls == [name for name in names for _ in range(2)]

    def test_struve_does_not_build_k_struve_parameters(self, tmp_path):
        # k = -1 is no KStruveParams, and only kstruve and sumudu_kstruve build one
        assert main(["eval", "--fn", "struve", "--k", "-1", "--x", "1",
                     "--out", str(tmp_path / "s")]) == EXIT_OK
        assert main(["eval", "--fn", "kstruve", "--k", "-1", "--x", "1",
                     "--out", str(tmp_path / "k")]) == EXIT_INPUT

    @pytest.mark.parametrize("u, code", [("1e150", EXIT_NUMERICAL), ("1e300", EXIT_INPUT)])
    def test_sumudu_image_overflow(self, tmp_path, capsys, u, code):
        # -c u^2/(4k) is -0.25, inside the radius, at u = 1e150, where (u/2)^(q+1)
        # overflows; at 1e300 it lies outside.  Both ended in an OverflowError traceback.
        argv = ["eval", "--fn", "sumudu_kstruve", "--nu", "2", "--c", "1e-300", "--u", u]
        assert main(argv + ["--out", str(tmp_path / "su")]) == code
        err = capsys.readouterr().err
        assert ("overflows a double" in err) == (code == EXIT_NUMERICAL)
        assert ("convergence radius" in err) == (code == EXIT_INPUT)
        assert not list(tmp_path.iterdir())

    def test_argument_past_the_largest_double_names_u(self, tmp_path, capsys):
        # c u^2 / (4k) overflows here; the message named an internal z
        argv = ["eval", "--fn", "sumudu_kstruve", "--u", "1e160", "--out", str(tmp_path / "su")]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "u = 1e+160 is outside the convergence radius" in err
        assert "|c| u^2 / (4k) <= 1/4" in err
        assert not list(tmp_path.iterdir())


class TestSolve:
    def test_writes_both_variants(self, tmp_path):
        out = tmp_path / "sol"
        rc = main(
            ["solve", "--nu", "0.9", "--t-max", "1", "--n-points", "8", "--out", str(out)]
        )
        assert rc == EXIT_OK
        rows = _data_rows(_read(tmp_path / "sol.csv"))
        assert len(rows) == 8
        # both solution columns populated and finite
        for row in rows:
            assert math.isfinite(float(row[1]))
            assert math.isfinite(float(row[2]))
        assert float(rows[-1][0]) == 1.0

    def test_input_validation_exit(self, tmp_path):
        rc = main(["solve", "--nu", "-1", "--out", str(tmp_path / "x")])
        assert rc == EXIT_INPUT

    def test_missing_output_directory(self, tmp_path, capsys):
        rc = main(["solve", "--n-points", "4", "--out", str(tmp_path / "nope" / "sol")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        # the message names the requested file, not a temporary one
        assert repr(str(tmp_path / "nope" / "sol.csv")) in err and ".tmp-" not in err

    def test_overflow_guard_exit(self, tmp_path, capsys):
        # at t_max = 1e20 term 9 of the outer series has log-magnitude 739
        rc = main(["solve", "--t-max", "1e20", "--n-points", "4", "--out", str(tmp_path / "sol")])
        assert rc == EXIT_NUMERICAL
        assert "overflow guard" in capsys.readouterr().err
        assert not (tmp_path / "sol.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["solve", "--forcing", "thm2", "--d", "1", "--a", "1e300"],
            ["sweep", "--param", "nu", "--values", "2"],
            ["validate"],
        ],
    )
    def test_rate_power_overflow_exit(self, tmp_path, capsys, argv):
        # d^nu (a^nu for thm2) passes the largest double; it was an OverflowError traceback
        args = ["--d", "1e300", "--nu", "2", "--n-points", "4", "--out", str(tmp_path / "x")]
        assert main(argv[:1] + args + argv[1:]) == EXIT_NUMERICAL
        assert "overflows a double" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_underflowing_forcing_argument(self, tmp_path):
        # (d t)^nu underflows to 0; the true values, about 1e-600, are 0.0 in
        # double.  It used to warn (an error under this suite's filter) and exit 3.
        argv = ["solve", "--t-max", "1e-200", "--nu", "2", "--n-points", "4"]
        assert main(argv + ["--out", str(tmp_path / "sol")]) == EXIT_OK
        rows = _data_rows(_read(tmp_path / "sol.csv"))
        assert [(float(r[1]), float(r[2])) for r in rows] == [(0.0, 0.0)] * 4

    def test_subnormal_forcing_argument(self, tmp_path):
        # x = d t is about 1e-323, and x^(q+1) / t with q = -0.4 grows as t -> 0
        argv = ["solve", "--nu", "1", "--mu", "-0.4", "--d", "1e-10", "--t-max", "1e-313",
                "--n-points", "4"]
        assert main(argv + ["--out", str(tmp_path / "sol")]) == EXIT_OK
        printed = [float(r[1]) for r in _data_rows(_read(tmp_path / "sol.csv"))]
        assert all(7e118 < v < 1.3e119 for v in printed)
        assert printed == sorted(printed, reverse=True)

    def test_n0_overflow_exit(self, tmp_path, capsys):
        # at c = -1 the k-Struve series does not alternate and max|sum| is 3.19
        # (as_printed) and 5.15 (sumudu_consistent), so n0 * sum passes the
        # largest double
        argv = ["solve", "--n0", "1.7e308", "--c", "-1", "--t-max", "5", "--n-points", "8"]
        assert main(argv + ["--out", str(tmp_path / "sol")]) == EXIT_NUMERICAL
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "sol.csv").exists()


class TestBudgetStopNotes:
    """``solve``, ``validate`` and ``sweep`` name each closed-form column with budget stops."""

    # thm1 at nu = 0.9 and t up to 1 needs up to 10 outer terms: every node
    # stops on a 3-term budget
    FLAGGED = ["--max-terms", "3", "--n-points", "4"]

    @pytest.mark.parametrize("command, code", [("solve", EXIT_OK), ("validate", EXIT_DISAGREE)])
    def test_each_variant_column_is_noted(self, command, code, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main([command, *self.FLAGGED, "--out", out]) == code
        stdout, err = capsys.readouterr()
        assert err.splitlines() == [
            f"{command}, {column}: 4 of 4 nodes stopped on the 3-term budget"
            for column in ("N_printed", "N_consistent")
        ]
        assert stdout.splitlines()[0] == out + ".csv"
        assert len(stdout.splitlines()) == (2 if command == "validate" else 1)

    def test_rounding_flags_are_noted_apart(self, tmp_path, capsys):
        # thm1 at nu = 0.9 and t = 20: the Mittag-Leffler factors' cancellation
        # passes 1e-8 of the value at the last two nodes, which stop on the
        # tolerance, not on the budget
        out = str(tmp_path / "o")
        assert main(["solve", "--nu", "0.9", "--t-max", "20", "--n-points", "8", "--out", out]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"solve, {column}: 2 of 8 nodes flagged: their rounding estimate passes 1e-08 "
            "of the value" for column in ("N_printed", "N_consistent")
        ]

    def test_terms_below_the_subnormal_range_are_not_noted(self, tmp_path, capsys):
        # every N_consistent term lies below the subnormal range, so each of
        # its values is exactly 0 and no node stops on the budget
        out = tmp_path / "o"
        argv = ["solve", "--forcing", "thm2", "--nu", "1.4747", "--mu", "0.78", "--c", "-1",
                "--k", "0.5", "--a", "2.5", "--t-max", "8.5e-110", "--n-points", "700",
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert {row[2] for row in _data_rows(_read(tmp_path / "o.csv"))} == {"0"}

    def test_each_swept_value_is_noted(self, tmp_path, capsys):
        # at d = 1e-10 the outer series' second term is below 1e-16 of the first
        out = str(tmp_path / "o")
        argv = ["sweep", "--param", "d", "--values", "1,1e-10", *self.FLAGGED, "--out", out]
        assert main(argv) == EXIT_OK
        stdout, err = capsys.readouterr()
        assert err.splitlines() == ["sweep, d=1: 4 of 4 nodes stopped on the 3-term budget"]
        assert stdout == out + ".csv\n"

    def test_rounding_flag_on_the_last_term_is_not_a_budget_stop(self, tmp_path, capsys):
        # figure 3 at nu = 1.5: three flagged nodes meet the tolerance, one of
        # them on term 50, which a count of terms_used = 50 took for a stop
        argv = ["figures", "--which", "3", "--t-max", "20", "--n-points", "16", "--format", "csv"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines()[-2:] == [
            "figure 3, nu=1.5: 6 of 16 nodes stopped on the 50-term budget",
            "figure 3, nu=1.5: 3 of 16 nodes flagged: their rounding estimate passes 1e-08 "
            "of the value",
        ]

    def test_constant_forcing_overflow_is_loud(self, tmp_path, capsys):
        # its factor is summed to its own tolerance, whose terms pass e^700;
        # a 50-term power series wrote -5.8e205 and a budget note
        argv = ["solve", "--forcing", "constant", "--nu", "0.5", "--t-max", "1e10",
                "--n-points", "4", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: closed form: Mittag-Leffler term 69 has log-magnitude "
            "704.0369268171273 relative to its row's first, exceeding the overflow guard 700\n"
        )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["solve"], ["validate"], ["sweep", "--param", "nu", "--values", "0.5,1.5"],
        ["solve", "--forcing", "constant"],
        # the 50-term power series of E_0.3 stopped on the budget at 40 nodes
        ["solve", "--forcing", "constant", "--nu", "0.3", "--d", "1.3"],
    ])
    def test_no_note_without_budget_stops(self, argv, tmp_path, capsys):
        assert main([*argv, "--n-points", "64", "--out", str(tmp_path / "o")]) == EXIT_OK
        assert capsys.readouterr().err == ""


class TestValidate:
    def test_agreement_run(self, tmp_path):
        out = tmp_path / "val"
        rc = main(
            [
                "validate", "--nu", "0.9", "--t-max", "1", "--n-points", "128",
                "--max-terms", "100", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        text = _read(tmp_path / "val.csv")
        assert "t,N_oracle,N_printed,N_consistent,dev_printed,dev_consistent" in text
        assert "# summary:" in text
        rows = _data_rows(text)
        assert len(rows) == 128
        # the re-derived variant tracks the oracle, the verbatim one does not
        assert float(rows[-1][5]) < 1e-3 < float(rows[-1][4])

    def test_c_zero_forcing_is_finite(self, tmp_path):
        rc = main(["validate", "--c", "0", "--n-points", "64", "--out", str(tmp_path / "val")])
        assert rc != EXIT_INPUT
        assert rc == EXIT_OK

    def test_flagged_at_t_max_is_undecided(self, tmp_path, capsys):
        # sumudu_consistent lies within --tol 0.1 of the oracle at t_max = 30,
        # but both closed forms flag that node: neither agrees, and validate exits 4
        argv = ["validate", "--forcing", "thm2", "--nu", "0.9", "--t-max", "30",
                "--n-points", "257", "--max-terms", "100", "--tol", "0.1"]
        assert main([*argv, "--out", str(tmp_path / "val")]) == EXIT_DISAGREE
        summary = capsys.readouterr().out.splitlines()[-1]
        assert ("within tol 0.1 at t_max: neither variant; "
                "undecided (flagged at t_max): as_printed, sumudu_consistent;" in summary)
        assert _read(tmp_path / "val.csv").endswith(f"# summary: {summary}\n")

    def test_disagreement_exit_code(self, tmp_path):
        rc = main(
            [
                "validate", "--nu", "0.9", "--n-points", "64", "--max-terms", "100",
                "--tol", "1e-15", "--out", str(tmp_path / "val"),
            ]
        )
        assert rc == EXIT_DISAGREE

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--forcing", "thm2", "--a", "1e300"], "thm2 forcing argument overflows a double"),
            (["--d", "1e150"], "series argument -c (x/2)^2 / k overflows a double"),
        ],
    )
    def test_overflowing_forcing_is_numerical_failure(self, tmp_path, capsys, flags, message):
        # the first was an input error ("x must be finite"); both printed
        # numpy RuntimeWarnings, errors under this suite's filter
        argv = ["validate", "--nu", "2", "--n-points", "4", "--out", str(tmp_path / "val")]
        assert main(argv + flags) == EXIT_NUMERICAL
        assert message in capsys.readouterr().err
        assert not (tmp_path / "val.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_input_error(self, tmp_path, capsys, tol):
        rc = main(["validate", "--n-points", "8", f"--tol={tol}", "--out", str(tmp_path / "val")])
        assert rc == EXIT_INPUT
        assert "tol must be" in capsys.readouterr().err
        assert not (tmp_path / "val.csv").exists()


def _figure_reference(which, grid, pol):
    """The columns of figure ``which``: each nu's as_printed solution under ``pol``."""
    forcing, k = cli._figure_spec(which)
    return [
        solve_closed_form(
            KineticProblem(n0=1.0, d=1.0, nu=nu, mu=1.0, k=k, forcing=forcing), grid,
            "as_printed", pol,
        )
        for nu in cli._FIGURE_NUS
    ]


class TestFigures:
    def test_single_figure_csv_only(self, tmp_path):
        rc = main(
            ["figures", "--which", "1", "--n-points", "50", "--format", "csv", "--out-dir", str(tmp_path)]
        )
        assert rc == EXIT_OK
        text = _read(tmp_path / "fig1.csv")
        assert text.splitlines()[1] == "t,nu_0.5,nu_0.7,nu_0.9,nu_1,nu_1.5"
        assert len(_data_rows(text)) == 50
        assert not (tmp_path / "fig1.svg").exists()

    def test_all_figures_both_formats(self, tmp_path):
        rc = main(["figures", "--n-points", "40", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        for which in range(1, 7):
            assert (tmp_path / f"fig{which}.csv").exists()
            svg = _read(tmp_path / f"fig{which}.svg")
            assert svg.startswith("<?xml")
            assert "<svg" in svg and "</svg>" in svg

    def test_one_point_writes_every_figure(self, tmp_path):
        # one node makes the x range a single value, which the charts pad
        assert main(["figures", "--n-points", "1", "--out-dir", str(tmp_path)]) == EXIT_OK
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == sorted(f"fig{i}.{ext}" for i in range(1, 7) for ext in ("csv", "svg"))
        for which in range(1, 7):
            assert len(_data_rows(_read(tmp_path / f"fig{which}.csv"))) == 1

    def test_missing_output_directory(self, tmp_path, capsys):
        out_dir = str(tmp_path / "nope")
        rc = main(["figures", "--which", "1", "--n-points", "8", "--out-dir", out_dir])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert repr(os.path.join(out_dir, "fig1.csv")) in err and ".tmp-" not in err

    def test_deterministic_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        for d in (a_dir, b_dir):
            assert main(["figures", "--which", "2", "--n-points", "30", "--out-dir", str(d)]) == EXIT_OK
        for name in ("fig2.csv", "fig2.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    @pytest.mark.parametrize("n", [100, 1025])
    @pytest.mark.parametrize("t_max", [1.0, 5.0, 10.0, 20.0])
    def test_within_one_ulp_of_full_budget(self, tmp_path, capsys, t_max, n):
        # each node stops on rel_tol = 1e-16; the 50-term sums without a
        # tolerance stop are the reference, and the terms after the stop
        # move a value by at most its last bit
        argv = ["figures", "--t-max", repr(t_max), "--n-points", str(n), "--format", "csv"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_OK
        grid = TimeGrid(t_max=t_max, n_points=n)
        full = TruncationPolicy(max_terms=50, rel_tol=0.0)
        for which in range(1, 7):
            written = np.loadtxt(tmp_path / f"fig{which}.csv", delimiter=",", skiprows=2, ndmin=2)
            np.testing.assert_array_equal(written[:, 0], grid.points())
            for column, ref in zip(written[:, 1:].T, _figure_reference(which, grid, full)):
                assert np.all(np.abs(column - ref.values) <= np.spacing(np.abs(ref.values)))
        if t_max == 1.0:  # every node converges, and no budget note is written
            assert capsys.readouterr().err == ""

    def test_budget_stops_reported_on_stderr(self, tmp_path, capsys):
        argv = ["figures", "--t-max", "10", "--n-points", "100", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        grid = TimeGrid(t_max=10.0, n_points=100)
        expect = []
        for which in range(1, 7):
            for nu, sol in zip(cli._FIGURE_NUS, _figure_reference(which, grid, TruncationPolicy())):
                # a node still summing when the budget ran out stopped on it;
                # the other flagged nodes were flagged for their rounding estimate
                stopped = int(np.count_nonzero(sol.budget_stop))
                rounded = int(np.count_nonzero(sol.truncation_flag)) - stopped
                if stopped:
                    expect.append(
                        f"figure {which}, nu={nu:g}: {stopped} of 100 nodes "
                        "stopped on the 50-term budget"
                    )
                if rounded:
                    expect.append(
                        f"figure {which}, nu={nu:g}: {rounded} of 100 nodes "
                        "flagged: their rounding estimate passes 1e-08 of the value"
                    )
        assert expect and err.splitlines() == expect
        # the note goes to stderr only
        assert out.splitlines() == [
            str(tmp_path / f"fig{i}.{ext}") for i in range(1, 7) for ext in ("csv", "svg")
        ]
        head = _read(tmp_path / "fig1.csv").splitlines()[0]
        assert head.endswith("max_terms=50 rel_tol=1e-16 t_max=10.0 n_points=100")

    def test_overflowing_t_max_exits_without_warning(self, tmp_path):
        # numpy's overflow warnings used to reach stderr before exit code 3
        src = os.path.dirname(os.path.dirname(os.path.abspath(kstruve.__file__)))
        argv = ["figures", "--t-max", "1e308", "--n-points", "8", "--out-dir", str(tmp_path)]
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "kstruve.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert done.returncode == EXIT_NUMERICAL
        assert done.stderr.startswith("numerical failure on figure 1")
        assert "Warning" not in done.stderr
        assert not list(tmp_path.iterdir())

    def test_series_overflow_names_figure_and_nu(self, tmp_path, capsys):
        # the closed form's guard trips in-process, in the Mittag-Leffler factor
        # before the outer series; no file is written
        argv = ["figures", "--which", "1", "--t-max", "1e20", "--n-points", "8",
                "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure on figure 1, nu=0.5: closed form: Mittag-Leffler term 32 has "
            "log-magnitude 704.625332624512 relative to its row's first, exceeding the "
            "overflow guard 700\n"
        )
        assert not list(tmp_path.iterdir())


class TestSweep:
    def test_long_format(self, tmp_path):
        out = tmp_path / "sw"
        rc = main(
            [
                "sweep", "--param", "nu", "--values", "0.5,0.9", "--t-max", "1",
                "--n-points", "4", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        text = _read(tmp_path / "sw.csv")
        rows = [line.split(",") for line in text.splitlines()[2:]]
        assert len(rows) == 8
        assert {r[0] for r in rows} == {"nu"}
        assert {float(r[1]) for r in rows} == {0.5, 0.9}

    def test_unknown_parameter(self, tmp_path):
        rc = main(["sweep", "--param", "q", "--values", "1", "--out", str(tmp_path / "sw")])
        assert rc == EXIT_INPUT

    def test_guard_trip_reads_above_the_guard(self, tmp_path, capsys):
        # d = 1 stops on the 3-term budget; at d = 720 term 711 of the first
        # Mittag-Leffler factor passes the guard by 0.10, which ":.3g" would
        # print as 700; the failure names the swept value, as the budget notes do
        argv = ["sweep", "--param", "d", "--values", "1,720", "--max-terms", "3",
                "--n-points", "4", "--out", str(tmp_path / "sw")]
        assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "sweep, d=1: 4 of 4 nodes stopped on the 3-term budget\n"
            "numerical failure: sweep, d=720: closed form: Mittag-Leffler term 711 has "
            "log-magnitude 700.1020399260686 relative to its row's first, exceeding the "
            "overflow guard 700\n"
        )
        assert not list(tmp_path.iterdir())


class TestConfig:
    def test_config_defaults_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nnu = 0.5\nn-points = 4\n", encoding="utf-8")
        out = tmp_path / "sol"
        rc = main(["--config", str(cfg), "solve", "--t-max", "1", "--out", str(out)])
        assert rc == EXIT_OK
        text = _read(tmp_path / "sol.csv")
        assert "nu=0.5" in text.splitlines()[0]
        assert len(_data_rows(text)) == 4
        # explicit flag wins over the config default
        rc = main(["--config", str(cfg), "solve", "--nu", "0.9", "--t-max", "1", "--out", str(out)])
        assert rc == EXIT_OK
        assert "nu=0.9" in _read(tmp_path / "sol.csv").splitlines()[0]

    def test_config_spellings(self, tmp_path):
        # --config PATH and --config=PATH apply the file; an abbreviation is a usage error
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-points = 4\n", encoding="utf-8")
        out = tmp_path / "sol"
        for prefix in (["--config", str(cfg)], [f"--config={cfg}"]):
            assert main(prefix + ["solve", "--out", str(out)]) == EXIT_OK
            assert len(_data_rows(_read(tmp_path / "sol.csv"))) == 4
        for prefix in (["--conf", str(cfg)], [f"--conf={cfg}"]):
            with pytest.raises(SystemExit) as exc:
                main(prefix + ["solve", "--out", str(tmp_path / "abbrev")])
            assert exc.value.code == 2
        assert not (tmp_path / "abbrev.csv").exists()

    def test_missing_config_file(self, tmp_path):
        rc = main(["--config", str(tmp_path / "nope.cfg"), "solve"])
        assert rc == EXIT_INPUT

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n", encoding="utf-8")
        rc = main(["--config", str(cfg), "solve"])
        assert rc == EXIT_INPUT

    def test_bad_config_value_is_usage_error(self, tmp_path):
        # an option of another subcommand is ignored, a bad value of this one is a usage error
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("x = zebra\nnu = abc\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "solve", "--out", str(tmp_path / "sol")])
        assert exc.value.code == 2


class TestParserReuse:
    def test_parser_built_once(self, tmp_path):
        cli._parsers.cache_clear()
        for i in range(3):
            out = tmp_path / f"k{i}"
            assert main(["eval", "--fn", "kgamma", "--gamma", "2", "--out", str(out)]) == EXIT_OK
        assert cli._parsers.cache_info().misses == 1

    def test_config_does_not_leak_into_later_calls(self, tmp_path):
        cfg_a = tmp_path / "a.cfg"
        cfg_a.write_text("nu = 0.5\nforcing = thm3\n", encoding="utf-8")
        cfg_b = tmp_path / "b.cfg"
        cfg_b.write_text("mu = 2\nt-max = 0.5\n", encoding="utf-8")
        out = tmp_path / "sol"
        metas = []
        for prefix in (["--config", str(cfg_a)], ["--config", str(cfg_b)], []):
            argv = prefix + ["solve", "--n-points", "4", "--out", str(out)]
            assert main(argv) == EXIT_OK
            metas.append(set(_read(tmp_path / "sol.csv").splitlines()[0].split()))
        assert {"nu=0.5", "forcing=thm3", "mu=1.0", "t_max=1.0"} <= metas[0]
        assert {"nu=0.9", "forcing=thm1", "mu=2.0", "t_max=0.5"} <= metas[1]
        assert {"nu=0.9", "forcing=thm1", "mu=1.0", "t_max=1.0"} <= metas[2]

    def test_negative_config_value(self, tmp_path):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("nu = -0.5\n", encoding="utf-8")
        out = tmp_path / "neg"
        argv = ["--config", str(cfg), "eval", "--fn", "kstruve", "--x", "1", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert "nu=-0.5" in _read(tmp_path / "neg.csv").splitlines()[0].split()


class TestOutputContract:
    def test_unix_line_endings_and_float_format(self, tmp_path):
        out = tmp_path / "fmt"
        assert main(["eval", "--fn", "struve", "--x", "0.1", "--out", str(out)]) == EXIT_OK
        raw = (tmp_path / "fmt.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        value = _data_rows(raw.decode())[0][1]
        # 17 significant digits round-trip doubles exactly
        assert float(value) == float(format(float(value), ".17g"))

    def test_row_format_matches_per_cell_format(self):
        # the old writer: format(float(v), ".17g") per float cell, str() otherwise
        def per_cell(row):
            return ",".join(
                format(float(c), ".17g") if isinstance(c, float) else str(c) for c in row
            )

        floats = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308, 0.1, 1 / 3]
        rows = [(a, b, 7, "nu") for a in floats for b in floats]
        # the string field is the one constant field the writer has: a row prefix
        a, b, n = (np.array(col, dtype=float) for col in list(zip(*rows))[:3])
        text = csv_rows((a, b, n), prefix=b"nu,").decode()
        assert text == "".join(per_cell((s, a, b, n)) + "\n" for a, b, n, s in rows)
        column = np.array(floats)
        assert csv_rows((column, column[::-1])).decode() == "".join(
            per_cell(r) + "\n" for r in zip(floats, floats[::-1])
        )

    def test_write_keeps_umask_permissions(self, tmp_path):
        saved = os.umask(0o022)
        try:
            for mask, mode in ((0o022, 0o644), (0o077, 0o600)):
                os.umask(mask)
                out = tmp_path / f"sol{mask:o}"
                assert main(["solve", "--n-points", "4", "--out", str(out)]) == EXIT_OK
                plain = tmp_path / f"plain{mask:o}"
                plain.write_text("x", encoding="utf-8")
                assert stat.S_IMODE(os.stat(f"{out}.csv").st_mode) == mode
                assert stat.S_IMODE(os.stat(plain).st_mode) == mode
        finally:
            os.umask(saved)


def _csv_body(path):
    """The file's text after its metadata and header lines."""
    return path.read_text(encoding="utf-8").split("\n", 2)[2]


def _reference_body(row_format, rows):
    return reference_csv("#", "h", row_format, rows).split("\n", 2)[2]


_BLOCK_SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1)
_POLICY = TruncationPolicy(max_terms=50, rel_tol=1e-16)
_VARIANTS = ("as_printed", "sumudu_consistent")


class TestDataRowsMatchReferenceWriter:
    """Every command's data rows equal the per-row ``%`` writer on the same numbers."""

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    def test_solve(self, tmp_path, n):
        out = tmp_path / "sol"
        assert main(["solve", "--n-points", str(n), "--out", str(out)]) == EXIT_OK
        problem = KineticProblem(n0=1.0, d=1.0, nu=0.9, mu=1.0)
        grid = TimeGrid(t_max=1.0, n_points=n)
        cols = [solve_closed_form(problem, grid, v, _POLICY).values for v in _VARIANTS]
        rows = reference_columns(grid.points(), *cols)
        assert _csv_body(tmp_path / "sol.csv") == _reference_body("%.17g,%.17g,%.17g", rows)

    def test_solve_with_huge_values(self, tmp_path):
        # n0 just below overflow: max|n0 * sum| is 1.05e308 (as_printed) and
        # 1.70e308 (sumudu_consistent); a larger n0 exits 3
        # (TestSolve.test_n0_overflow_exit)
        out = tmp_path / "sol"
        argv = ["solve", "--n0", "3.3e307", "--c", "-1", "--t-max", "5", "--n-points", "8"]
        problem = KineticProblem(n0=3.3e307, d=1.0, nu=0.9, mu=1.0, c=-1.0)
        grid = TimeGrid(t_max=5.0, n_points=8)
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        cols = [solve_closed_form(problem, grid, v, _POLICY).values for v in _VARIANTS]
        assert float(np.max(np.abs(cols[0]))) > 1e308
        rows = reference_columns(grid.points(), *cols)
        assert _csv_body(tmp_path / "sol.csv") == _reference_body("%.17g,%.17g,%.17g", rows)

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    def test_validate(self, tmp_path, n):
        out = tmp_path / "val"
        assert main(["validate", "--n-points", str(n), "--out", str(out)]) in (
            EXIT_OK,
            EXIT_DISAGREE,
        )
        problem = KineticProblem(n0=1.0, d=1.0, nu=0.9, mu=1.0)
        grid = TimeGrid(t_max=1.0, n_points=n)
        report = adjudicate(problem, grid, _POLICY, tol=1e-3)
        oracle, printed = report.oracle.values, report.printed.values
        consistent = report.consistent.values
        norm = float(np.max(np.abs(oracle))) or 1.0
        rows = reference_columns(
            grid.points(),
            oracle,
            printed,
            consistent,
            np.abs(printed - oracle) / norm,
            np.abs(consistent - oracle) / norm,
        )
        expect = _reference_body(",".join(["%.17g"] * 6), rows)
        expect += f"# summary: {report.summary()}\n"
        assert _csv_body(tmp_path / "val.csv") == expect

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    def test_figures(self, tmp_path, n):
        argv = ["figures", "--which", "4", "--n-points", str(n)]
        assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_OK
        grid = TimeGrid(t_max=1.0, n_points=n)
        series = {}
        for nu in (0.5, 0.7, 0.9, 1.0, 1.5):
            problem = KineticProblem(n0=1.0, d=1.0, nu=nu, mu=1.0, k=1.0, forcing="thm3")
            series[f"nu_{nu:g}"] = solve_closed_form(problem, grid, "as_printed", _POLICY).values
        rows = reference_columns(grid.points(), *series.values())
        assert _csv_body(tmp_path / "fig4.csv") == _reference_body(",".join(["%.17g"] * 6), rows)
        svg = (tmp_path / "fig4.svg").read_text(encoding="utf-8")
        points = re.findall(r'<polyline points="([^"]*)"', svg)
        assert points == reference_points(grid.points(), series)

    @pytest.mark.parametrize(
        # the last case writes values above 1e250: max|sum| is 4.3e5 at d = 1.25
        "n, n0, t_max", [(n, 1.0, 1.0) for n in _BLOCK_SIZES] + [(8, 2e302, 20.0)]
    )
    def test_sweep(self, tmp_path, n, n0, t_max):
        out = tmp_path / "sw"
        argv = ["sweep", "--param", "d", "--values", "0.5,1.25,0.8", "--n-points", str(n)]
        argv += ["--n0", repr(n0), "--t-max", repr(t_max)]
        grid = TimeGrid(t_max=t_max, n_points=n)
        rows = []
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        for d in (0.5, 1.25, 0.8):
            problem = KineticProblem(n0=n0, d=d, nu=0.9, mu=1.0)
            sol = solve_closed_form(problem, grid, "sumudu_consistent", _POLICY)
            rows += [("d", d, t, v) for t, v in reference_columns(grid.points(), sol.values)]
        if n0 > 1.0:
            assert any(1e250 < abs(r[3]) < math.inf for r in rows)
        assert _csv_body(tmp_path / "sw.csv") == _reference_body("%s,%.17g,%.17g,%.17g", rows)

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    def test_eval(self, tmp_path, n):
        xs = np.linspace(0.05, 12.0, n).tolist()
        out = tmp_path / "ev"
        argv = ["eval", "--fn", "struve", "--p", "0.5", "--x=" + ",".join(map(repr, xs))]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        rows = [(x, *struve_h_info(0.5, x, _POLICY)) for x in xs]
        assert _csv_body(tmp_path / "ev.csv") == _reference_body("%.17g,%.17g,%d", rows)


def test_import_does_not_load_scipy():
    # neither the import nor the numeric Sumudu transform, under both schemes,
    # loads scipy
    code = (
        "import sys, kstruve, kstruve.cli; "
        "from kstruve import QuadratureSpec, sumudu_numeric; "
        "sumudu_numeric(lambda t: t, 0.5); "
        "sumudu_numeric(lambda t: t, 0.5, QuadratureSpec(scheme='truncated_adaptive')); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kstruve.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
