import math
import os
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

    def test_disagreement_exit_code(self, tmp_path):
        rc = main(
            [
                "validate", "--nu", "0.9", "--n-points", "64", "--max-terms", "100",
                "--tol", "1e-15", "--out", str(tmp_path / "val"),
            ]
        )
        assert rc == EXIT_DISAGREE


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

    def test_deterministic_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        for d in (a_dir, b_dir):
            assert main(["figures", "--which", "2", "--n-points", "30", "--out-dir", str(d)]) == EXIT_OK
        for name in ("fig2.csv", "fig2.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


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
        text = cli._csv("# meta", "a,b,n,s", "%.17g,%.17g,%d,%s", rows)
        expect = "\n".join(["# meta", "a,b,n,s"] + [per_cell(r) for r in rows]) + "\n"
        assert text == expect
        column = np.array(floats)
        assert cli._csv("#", "h", "%.17g,%.17g", cli._columns(column, column[::-1])) == (
            "\n".join(["#", "h"] + [per_cell(r) for r in zip(floats, floats[::-1])]) + "\n"
        )


def test_import_does_not_load_scipy():
    # scipy is needed only by the numeric Sumudu transform
    code = (
        "import sys, kstruve, kstruve.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kstruve.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
