import io
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import polyconv
from polyconv import basis, closed_forms, convmat
from polyconv.cli import main, read_series, run_verification, write_series
from polyconv.errors import PolyconvError
from polyconv.scalars import FloatBackend, over_lcm

JACOBI_F = "# family=jacobi alpha=1/3 beta=1/5\n0,1/3\n1,-2\n2,0.1\n3,5/7\n"
JACOBI_G = "# family=jacobi alpha=1/3 beta=1/5\n" + "".join(
    f"{i},{(-1) ** i}/{i + 2}\n" for i in range(10))


def write_file(path, text):
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")


class TestCoeffsCommand:
    def test_laguerre_two_nonzeros_per_column(self, tmp_path):
        out = tmp_path / "rho.csv"
        rc = main(["coeffs", "--family", "laguerre", "--alpha", "0",
                   "--m", "2", "--jmax", "9", "--nmax", "4",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "j,n,value"
        per_column = {}
        for ln in lines[1:]:
            j, n, v = ln.split(",")
            if v != "0":
                per_column.setdefault(int(n), []).append((int(j), v))
        for n in range(5):
            assert sorted(per_column[n]) == [(2 + n, "1"), (2 + n + 1, "-1")]

    def test_legendre_known_column(self, tmp_path):
        out = tmp_path / "rho.csv"
        assert main(["coeffs", "--family", "legendre", "--m", "0",
                     "--jmax", "2", "--nmax", "1", "--out", str(out)]) == 0
        rows = {}
        for ln in out.read_text().strip().splitlines()[1:]:
            j, n, v = ln.split(",")
            rows[(j, n)] = v
        assert [rows[(str(j), "1")] for j in range(3)] == ["-1/3", "0", "1/3"]

    def test_negative_parameters_use_equals_form(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["coeffs", "--family", "jacobi", "--alpha=-1/4",
                     "--beta=-3/4", "--m", "1", "--jmax", "3", "--nmax", "1",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("j,n,value")

    def test_negative_jmax_is_usage_error(self):
        assert main(["coeffs", "--family", "legendre", "--m", "0",
                     "--jmax", "-1", "--nmax", "2"]) == 2

    def test_unknown_family_is_usage_error(self):
        assert main(["coeffs", "--family", "hermite", "--m", "0",
                     "--jmax", "1", "--nmax", "1"]) == 2

    @pytest.mark.parametrize("command", ["coeffs", "figure"])
    def test_generic_monic_is_usage_error(self, command):
        assert main([command, "--family", "generic_monic", "--m", "0",
                     "--jmax", "1", "--nmax", "1"]) == 2

    def test_missing_parameter_is_reported(self, capsys):
        assert main(["coeffs", "--family", "jacobi", "--m", "0",
                     "--jmax", "1", "--nmax", "1"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,name,text", [
        (["coeffs", "--family", "jacobi", "--alpha", "1/0", "--beta", "1"],
         "alpha", "1/0"),
        (["figure", "--family", "gegenbauer", "--lambda", "1/0"],
         "lambda", "1/0"),
        (["coeffs", "--family", "jacobi", "--alpha", "1", "--beta", "abc"],
         "beta", "abc"),
    ], ids=["coeffs", "figure", "abc"])
    def test_zero_denominator_parameter_is_reported(self, argv, name, text,
                                                    capsys):
        assert main(argv + ["--m", "1", "--jmax", "2", "--nmax", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"parameter {name!r}" in err and text in err

    @pytest.mark.parametrize("argv,family,name", [
        (["--family", "legendre", "--alpha", "5"], "legendre", "alpha"),
        (["--family", "jacobi", "--alpha", "1", "--beta", "1", "--lambda",
          "7"], "jacobi", "lambda"),
    ], ids=["legendre_alpha", "jacobi_lambda"])
    def test_parameter_the_family_does_not_take_is_reported(
            self, argv, family, name, capsys):
        assert main(["coeffs", *argv, "--m", "1", "--jmax", "2",
                     "--nmax", "2"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: family {family!r} takes no parameter "
                       f"{name!r}\n")

    def test_float_backend_rounds_the_exact_entries(self, tmp_path):
        from polyconv import closed_forms as cf
        out = tmp_path / "rho.csv"
        assert main(["coeffs", "--family", "jacobi", "--alpha", "1/3",
                     "--beta", "1/5", "--m", "3", "--jmax", "12",
                     "--nmax", "8", "--backend", "float:128",
                     "--out", str(out)]) == 0
        spec = basis.jacobi(Fraction(1, 3), Fraction(1, 5))
        fb = FloatBackend(128)
        for ln in out.read_text().strip().splitlines()[1:]:
            j, n, v = ln.split(",")
            exact = cf.rho_closed(spec, 3, int(n), int(j)).as_fraction()
            assert v == str(fb.make(exact)), (j, n)


class TestFigureCommand:
    def test_sentinels_match_structural_zeros(self, tmp_path):
        from polyconv import closed_forms as cf
        out = tmp_path / "fig.csv"
        assert main(["figure", "--family", "legendre", "--m", "2",
                     "--jmax", "8", "--nmax", "8", "--out", str(out)]) == 0
        spec = basis.legendre()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "j,n,log10abs"
        for ln in lines[1:]:
            j, n, v = ln.split(",")
            if cf.structural_zero(spec, 2, int(n), int(j)):
                assert v == "-inf"

    def test_backend_flag_accepts_float_spec(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["figure", "--family", "chebyshev", "--m", "1",
                     "--jmax", "4", "--nmax", "4",
                     "--backend", "float:128", "--out", str(out)]) == 0
        assert out.read_text().startswith("j,n,log10abs")

    @pytest.mark.parametrize("alpha,beta", [("5/2", "3/2"), ("1/3", "1/5")])
    def test_float_backend_writes_the_exact_figure(self, tmp_path, alpha,
                                                   beta):
        # figure data is computed exactly at the exact parameters and
        # rounded only by log10, so the backend cannot change a byte
        texts = []
        for backend in ("float:128", "float:256", "rational"):
            out = tmp_path / f"{backend.replace(':', '')}.csv"
            assert main(["figure", "--family", "jacobi", "--alpha", alpha,
                         "--beta", beta, "--m", "15", "--jmax", "66",
                         "--nmax", "66", "--backend", backend,
                         "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2]


class TestSeriesIO:
    def test_round_trip(self, tmp_path):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        series = convmat.SeriesCoeffs(spec, [Fraction(1, 3), 0, Fraction(-7, 2)])
        buf = io.StringIO()
        write_series(series, buf)
        path = tmp_path / "s.csv"
        write_file(path, buf.getvalue())
        again = read_series(str(path))
        assert again.family == spec
        assert again.coeffs == series.coeffs

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_file(path, "0,1\n")
        with pytest.raises(Exception):
            read_series(str(path))

    @pytest.mark.parametrize("text,line,detail", [
        ("# family=legendre\n0,1\n1,2\n\n0,3\n", 5, "index 0 given twice"),
        ("# family=legendre\n0,1\n-1,2\n", 3, "negative index -1"),
        ("# family=legendre\n\n", 1, "no coefficient rows"),
        ("# family=legendre\n0,1\n1,\n", 3, "got '1,'"),
        ("\n# family=jacobi alpha=1/3\n0,1\n", 2, "parameter 'beta'"),
        ("# family=generic_monic\n0,1\n", 1, "generic_monic"),
        (b"# family=legendre\n0,1\n1,1/\xff\n", 3, "0xff is not UTF-8"),
        ("# family=jacobi alpha=1 beta=1 alpha=2\n0,1\n", 1,
         "bad family header: parameter 'alpha' given twice"),
    ], ids=["duplicate_index", "negative_index", "no_rows", "empty_value",
            "bad_header", "generic_monic", "not_utf8", "repeated_key"])
    def test_malformed_series_names_file_and_line(self, tmp_path, capsys,
                                                  text, line, detail):
        path = tmp_path / "bad.csv"
        write_file(path, text)
        with pytest.raises(PolyconvError) as info:
            read_series(str(path))
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert detail in str(info.value)
        assert main(["convolve", "--f", str(path), "--g", str(path)]) == 1
        assert f"{path}:{line}: " in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_file(plain, JACOBI_F)
        write_file(marked, b"\xef\xbb\xbf" + JACOBI_F.encode("utf-8"))
        want = read_series(str(plain))
        got = read_series(str(marked))
        assert got.family == want.family and got.coeffs == want.coeffs

    def test_parameter_the_family_does_not_take_names_file_and_line(
            self, tmp_path):
        path = tmp_path / "bad.csv"
        write_file(path, "# family=chebyshev alpha=3\n0,1\n")
        with pytest.raises(PolyconvError) as info:
            read_series(str(path))
        assert str(info.value) == (f"{path}:1: bad family header: family "
                                   "'chebyshev' takes no parameter 'alpha'")


class TestMatrixAndConvolve:
    def test_matrix_and_convolve_agree(self, tmp_path):
        f = tmp_path / "f.csv"
        g = tmp_path / "g.csv"
        write_file(f, "# family=laguerre alpha=0\n0,1\n1,2\n")
        write_file(g, "# family=laguerre alpha=0\n0,3\n1,0\n2,1\n")
        rc = main(["matrix", "--f", str(f), "--N", "2",
                   "--out", str(tmp_path / "R.csv")])
        assert rc == 0
        lines = (tmp_path / "R.csv").read_text().strip().splitlines()
        assert lines[0] == "5,3"

        rc = main(["convolve", "--f", str(f), "--g", str(g),
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 0
        c = read_series(str(tmp_path / "c.csv"))
        fs = read_series(str(f))
        gs = read_series(str(g))
        assert c.coeffs == convmat.convolve_series(fs, gs).coeffs

    def test_sparse_output_for_unit_factors(self, tmp_path):
        f = tmp_path / "f.csv"
        g = tmp_path / "g.csv"
        write_file(f, "# family=laguerre alpha=0\n0,0\n1,0\n2,1\n")
        write_file(g, "# family=laguerre alpha=0\n0,0\n1,0\n2,0\n3,1\n")
        assert main(["convolve", "--f", str(f), "--g", str(g),
                     "--out", str(tmp_path / "c.csv")]) == 0
        c = read_series(str(tmp_path / "c.csv"))
        nz = {k: v.as_fraction() for k, v in enumerate(c.coeffs) if v != 0}
        assert nz == {5: 1, 6: -1}

    def test_family_mismatch_exits_one(self, tmp_path, capsys):
        f = tmp_path / "f.csv"
        g = tmp_path / "g.csv"
        write_file(f, "# family=laguerre alpha=0\n0,1\n")
        write_file(g, "# family=legendre\n0,1\n")
        assert main(["convolve", "--f", str(f), "--g", str(g)]) == 1
        assert "error" in capsys.readouterr().err

    def test_float_backend_rounds_the_exact_matrix(self, tmp_path):
        f = tmp_path / "f.csv"
        write_file(f, "# family=jacobi alpha=1/3 beta=1/5\n"
                      "0,1/3\n1,-2\n2,0.1\n")
        out = tmp_path / "R.csv"
        assert main(["matrix", "--f", str(f), "--N", "3",
                     "--backend", "float:128", "--out", str(out)]) == 0
        exact = convmat.build_matrix(read_series(str(f)), 4)
        fb = FloatBackend(128)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "7,4"
        assert lines[1:] == [",".join(str(fb.make(v.as_fraction()))
                                      for v in row)
                             for row in exact.entries]

    def test_float_backend_rounds_the_exact_convolution(self, tmp_path):
        f = tmp_path / "f.csv"
        g = tmp_path / "g.csv"
        write_file(f, JACOBI_F)
        write_file(g, JACOBI_G)
        out = tmp_path / "c.csv"
        assert main(["convolve", "--f", str(f), "--g", str(g),
                     "--backend", "float:128", "--out", str(out)]) == 0
        exact = convmat.convolve_series(read_series(str(f)),
                                        read_series(str(g)))
        fb = FloatBackend(128)
        lines = out.read_text().splitlines()
        assert lines[0] == "# family=jacobi alpha=1/3 beta=1/5"
        assert lines[1:] == [f"{i},{fb.make(v.as_fraction())}"
                             for i, v in enumerate(exact.coeffs)]
        assert len(lines) == 1 + 14

    def test_triplet_format(self, tmp_path):
        f = tmp_path / "f.csv"
        write_file(f, "# family=laguerre alpha=0\n0,1\n")
        assert main(["matrix", "--f", str(f), "--N", "2", "--format",
                     "triplet", "--out", str(tmp_path / "R.csv")]) == 0
        lines = (tmp_path / "R.csv").read_text().strip().splitlines()
        assert lines[0] == "j,n,value"
        assert len(lines) == 1 + 6


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        args = ["coeffs", "--family", "jacobi", "--alpha", "5/2",
                "--beta", "3/2", "--m", "2", "--jmax", "8", "--nmax", "5"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_float_output_round_trips(self, tmp_path):
        fb = FloatBackend(128)
        spec = basis.legendre(backend=fb)
        series = convmat.SeriesCoeffs(spec, [fb.make(Fraction(1, 3)),
                                             fb.make(Fraction(-7, 9))])
        buf = io.StringIO()
        write_series(series, buf)
        path = tmp_path / "s.csv"
        write_file(path, buf.getvalue())
        again = read_series(str(path))
        for a, b in zip(again.coeffs, series.coeffs):
            if b == 0:
                assert a == 0
            else:
                rel = abs((a - b) / b)
                assert rel < fb.make(Fraction(1, 2 ** 100))


def test_rational_runs_do_not_import_mpmath(tmp_path):
    # mpmath only rounds and prints float output, so a rational run of
    # every computing command must not load it
    write_file(tmp_path / "f.csv", JACOBI_F)
    write_file(tmp_path / "g.csv", JACOBI_G)
    script = textwrap.dedent(f"""
        import os, sys
        from polyconv.cli import main
        os.chdir({str(tmp_path)!r})
        runs = [
            ["figure", "--family", "jacobi", "--alpha", "1/3", "--beta",
             "1/5", "--m", "4", "--jmax", "9", "--nmax", "9",
             "--out", "fig.csv"],
            ["matrix", "--f", "f.csv", "--N", "4", "--out", "R.csv"],
            ["convolve", "--f", "f.csv", "--g", "g.csv", "--out", "c.csv"],
            ["verify", "--max-degree", "2"],
        ]
        codes = [main(argv) for argv in runs]
        print(codes, "mpmath" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(polyconv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"


@pytest.mark.parametrize("argv,code", [
    (["verify", "--max-degree", "2"], 0),
    (["coeffs", "--family", "legendre"], 2),  # required options missing
], ids=["verify", "usage_error"])
def test_console_entry_point_exit_code(argv, code):
    src = os.path.dirname(os.path.dirname(polyconv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "polyconv.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == code, done.stderr


class TestVerify:
    def test_default_run_passes(self, capsys):
        assert main(["verify", "--max-degree", "2"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAILED" not in out

    def test_injected_fault_is_reported(self, monkeypatch):
        rho_closed = closed_forms.rho_closed

        def corrupt(spec, m, n, j):
            value = rho_closed(spec, m, n, j)
            if spec.family is basis.Family.LEGENDRE and (m, n, j) == (1, 2, 0):
                return value + 1
            return value

        monkeypatch.setattr(closed_forms, "rho_closed", corrupt)
        report = run_verification(max_degree=2)
        assert not report.ok
        label, m, n, j, got, want = report.first_mismatch
        assert (label, m, n, j) == ("legendre", 1, 2, 0)
        assert got != want
        assert any("FIRST MISMATCH" in ln for ln in report.lines)

    def test_engine_zero_band_fault_is_reported(self, monkeypatch):
        # the zero-band checks read the engine's columns, so a nonzero
        # there fails, where a closed form returns its zero by branch
        rho_columns = closed_forms.rho_columns

        def corrupt(spec, m, nmax):
            cols = rho_columns(spec, m, nmax)
            if spec.family is basis.Family.LEGENDRE and m == 1:
                values = closed_forms._fractions(cols[8])
                values[3] += 1
                cols[8] = over_lcm(values)
            return cols

        monkeypatch.setattr(closed_forms, "rho_columns", corrupt)
        report = run_verification(2, [basis.legendre()])
        assert not report.ok
        assert report.failures == 1
        assert report.first_mismatch == ("legendre", 1, 8, 3, "1", "0")
        assert report.lines[-1] == ("FIRST MISMATCH family=legendre m=1 n=8 "
                                    "j=3 engine=1 oracle=0")

    def test_cli_exit_code_reflects_failure(self, monkeypatch, capsys):
        import polyconv.cli as cli_mod

        def failing(max_degree=6, families=None):
            return cli_mod.VerificationReport(["boom"], 1, 1,
                                              ("legendre", 0, 0, 0, "1", "0"))

        monkeypatch.setattr(cli_mod, "run_verification", failing)
        assert main(["verify"]) == 1
