import io
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import polyconv
from polyconv import (basis, cli, closed_forms, convmat, engine, generic_conv,
                      oracle)
from polyconv.cli import main, read_series, run_verification, write_series
from polyconv.errors import PolyconvError
from polyconv.scalars import FloatBackend, over_lcm

JACOBI_F = "# family=jacobi alpha=1/3 beta=1/5\n0,1/3\n1,-2\n2,0.1\n3,5/7\n"
JACOBI_G = "# family=jacobi alpha=1/3 beta=1/5\n" + "".join(
    f"{i},{(-1) ** i}/{i + 2}\n" for i in range(10))


LEGENDRE_TABLE = ["coeffs", "--family", "legendre", "--jmax", "2",
                  "--nmax", "2"]


def _int_digit_limit():
    """CPython's int <-> str digit limit, None where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


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

    @pytest.mark.parametrize("argv,reason", [
        ([*LEGENDRE_TABLE, "--m", "1", "--backend", "float:52"],
         "argument --backend: float backend precision must be at least 53 "
         "bits"),
        ([*LEGENDRE_TABLE, "--m", "1", "--backend", "float:x"],
         "argument --backend: not an integer: 'x'"),
        ([*LEGENDRE_TABLE, "--m", "1", "--backend", "double"],
         "argument --backend: unknown backend 'double'; use 'rational' or "
         "'float:<bits>'"),
        ([*LEGENDRE_TABLE, "--m", "x"], "argument --m: not an integer: 'x'"),
        (["coeffs", "--family", "legendre", "--m", "1", "--jmax", "2.5",
          "--nmax", "2"], "argument --jmax: not an integer: '2.5'"),
        (["matrix", "--f", "f.csv", "--N", "x"],
         "argument --N: not an integer: 'x'"),
        (["verify", "--max-degree", "1e3"],
         "argument --max-degree: not an integer: '1e3'"),
        (["matrix", "--f", "f.csv", "--N=-1"],
         "argument --N: must be nonnegative"),
    ], ids=["low_precision", "bits_not_integer", "unknown_backend", "m",
            "jmax", "N", "max_degree", "N_negative"])
    def test_usage_error_names_the_reason(self, capsys, argv, reason):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: {reason}\n"), err

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

    def test_float_backend_alias_is_256_bits(self, tmp_path):
        texts = {}
        for backend in ("float", "float:256", "float:128"):
            out = tmp_path / f"{backend.replace(':', '')}.csv"
            assert main(["coeffs", "--family", "jacobi", "--alpha", "1/3",
                         "--beta", "1/5", "--m", "3", "--jmax", "6",
                         "--nmax", "4", "--backend", backend,
                         "--out", str(out)]) == 0
            texts[backend] = out.read_bytes()
        assert texts["float"] == texts["float:256"] != texts["float:128"]


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

    def test_left_out_degrees_share_one_zero(self, tmp_path):
        # the degrees a file leaves out are one shared zero Scalar, which
        # `_weights` skips by identity; a zero written out is its own
        path = tmp_path / "s.csv"
        write_file(path, "# family=legendre\n0,1/3\n3,0\n6,-2\n")
        series = read_series(str(path))
        zeros = [series.coeffs[k] for k in (1, 2, 4, 5)]
        assert all(v is zeros[0] for v in zeros)
        assert [v.as_fraction() for v in series.coeffs] == \
            [Fraction(1, 3), 0, 0, 0, 0, 0, -2]
        assert convmat._weights(series) == {0: Fraction(1, 3), 6: -2}

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_file(path, "0,1\n")
        with pytest.raises(Exception):
            read_series(str(path))

    @pytest.mark.parametrize("text,line,detail", [
        ("# family=legendre\n0,1\n1,2\n\n0,3\n", 5, "index 0 given twice"),
        ("# family=legendre\n0,1\n-1,2\n", 3, "negative index -1"),
        ("# family=legendre\n\n", 1, "no coefficient rows"),
        ("# family=legendre\n0,1\n1,\n", 3,
         "got '1,': the value is not a rational number"),
        ("# family=legendre\n0,1\nx,1\n", 3,
         "got 'x,1': the index is not an integer"),
        ("# family=legendre\n0,1/0\n", 2,
         "got '0,1/0': the value has a zero denominator"),
        ("# family=legendre\n0,1\n1,2/" + "3" * 1000 + "x\n", 3,
         "got '1,2/" + "3" * 76 + "'... (1005 characters): the value is "
         "not a rational number"),
        ("\n# family=jacobi alpha=1/3\n0,1\n", 2, "parameter 'beta'"),
        ("# family=generic_monic\n0,1\n", 1, "generic_monic"),
        (b"# family=legendre\n0,1\n1,1/\xff\n", 3, "0xff is not UTF-8"),
        ("# family=jacobi alpha=1 beta=1 alpha=2\n0,1\n", 1,
         "bad family header: parameter 'alpha' given twice"),
    ], ids=["duplicate_index", "negative_index", "no_rows", "empty_value",
            "bad_index", "zero_denominator", "long_value", "bad_header",
            "generic_monic", "not_utf8", "repeated_key"])
    def test_malformed_series_names_file_and_line(self, tmp_path, capsys,
                                                  text, line, detail):
        path = tmp_path / "bad.csv"
        write_file(path, text)
        with pytest.raises(PolyconvError) as info:
            read_series(str(path))
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert detail in str(info.value)
        # a row is echoed cut to 80 characters, never whole
        assert len(str(info.value)) < len(str(path)) + 250
        assert main(["convolve", "--f", str(path), "--g", str(path)]) == 1
        assert f"{path}:{line}: " in capsys.readouterr().err

    def test_value_past_the_int_digit_limit(self, tmp_path):
        # CPython refuses int <-> str conversions past 4,300 digits unless
        # the limit is lifted; read_series lifts it while it parses and
        # restores it after
        limit = _int_digit_limit()
        path = tmp_path / "big.csv"
        write_file(path, "# family=legendre\n0," + "3" * 5000 + "/7\n")
        series = read_series(str(path))
        assert series.coeffs[0].as_fraction() == Fraction(
            (10 ** 5000 - 1) // 3, 7)
        assert _int_digit_limit() == limit

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

    def test_convolve_past_the_int_digit_limit(self, tmp_path):
        # 7/3 P_3 times 1/3 P_8000 in Jacobi(5/2, 3/2): its exact values
        # have more digits than CPython converts by default, so main lifts
        # the limit while it runs, restores it, and the file reads back
        limit = _int_digit_limit()
        f, g, out = (tmp_path / name for name in ("f.csv", "g.csv", "c.csv"))
        write_file(f, "# family=jacobi alpha=5/2 beta=3/2\n3,7/3\n")
        write_file(g, "# family=jacobi alpha=5/2 beta=3/2\n8000,1/3\n")
        assert main(["convolve", "--f", str(f), "--g", str(g),
                     "--out", str(out)]) == 0
        assert _int_digit_limit() == limit
        c = read_series(str(out))
        assert len(c.coeffs) == 8005
        assert max(v.as_fraction().denominator.bit_length()
                   for v in c.coeffs) > 4300 * math.log2(10)
        for j in (7996, 8000, 8004):
            want = closed_forms.rho_closed(c.family, 3, 8000, j).as_fraction()
            assert c.coeffs[j].as_fraction() == Fraction(7, 9) * want, j

    @pytest.mark.parametrize("existing", [True, False],
                             ids=["existing", "new"])
    def test_failed_command_leaves_out_untouched(self, tmp_path, monkeypatch,
                                                 existing):
        # --out is written to a temporary file renamed over it on success:
        # a writer failing partway leaves the target as it was, and no
        # temporary file behind
        f, g, out = (tmp_path / name for name in ("f.csv", "g.csv", "c.csv"))
        write_file(f, JACOBI_F)
        write_file(g, JACOBI_G)
        if existing:
            write_file(out, "kept\n")

        def failing(series, stream, backend=None):
            stream.write("# partial\n0,1\n")
            raise ValueError("writer failed partway")

        monkeypatch.setattr(cli, "write_series", failing)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["convolve", "--f", str(f), "--g", str(g),
                     "--out", str(out)]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert (out.read_text() == "kept\n") if existing else not out.exists()

    def test_out_replaces_the_file_and_keeps_its_mode(self, tmp_path):
        f, g, out = (tmp_path / name for name in ("f.csv", "g.csv", "c.csv"))
        write_file(f, JACOBI_F)
        write_file(g, JACOBI_G)
        write_file(out, "old\n")
        out.chmod(0o640)
        assert main(["convolve", "--f", str(f), "--g", str(g),
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("# family=jacobi")
        assert out.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["c.csv", "f.csv", "g.csv"]

    @pytest.mark.parametrize("existing", [True, False],
                             ids=["existing", "new"])
    def test_out_where_no_temporary_file_can_be_made(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     existing):
        # a directory that refuses the temporary file: a file there that
        # exists is written in place, as before the rename; a new one
        # fails with the path asked for
        f, g, out = (tmp_path / name for name in ("f.csv", "g.csv", "c.csv"))
        write_file(f, JACOBI_F)
        write_file(g, JACOBI_G)
        if existing:
            write_file(out, "old\n")

        def refusing(file, mode="r", **kwargs):
            if "x" in mode:
                raise PermissionError(13, "Permission denied", file)
            return open(file, mode, **kwargs)

        monkeypatch.setattr(cli, "open", refusing, raising=False)
        code = main(["convolve", "--f", str(f), "--g", str(g),
                     "--out", str(out)])
        assert {p.name for p in tmp_path.iterdir()} == \
            {"f.csv", "g.csv", *(["c.csv"] if existing else [])}
        if existing:
            assert code == 0
            assert out.read_text().startswith("# family=jacobi")
        else:
            assert code == 1
            assert f"Permission denied: '{out}'" in capsys.readouterr().err

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

    def test_degree_zero_target_is_one_column(self, tmp_path):
        # --N is the degree of the input series, so N = 0 gives the
        # (M+2) x 1 matrix
        f = tmp_path / "f.csv"
        write_file(f, JACOBI_F)
        out = tmp_path / "R.csv"
        assert main(["matrix", "--f", str(f), "--N", "0",
                     "--out", str(out)]) == 0
        want = convmat.build_matrix(read_series(str(f)), 1)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "5,1"
        assert lines[1:] == [str(row[0]) for row in want.entries]

    def test_triplet_format(self, tmp_path):
        f = tmp_path / "f.csv"
        write_file(f, "# family=laguerre alpha=0\n0,1\n")
        assert main(["matrix", "--f", str(f), "--N", "2", "--format",
                     "triplet", "--out", str(tmp_path / "R.csv")]) == 0
        lines = (tmp_path / "R.csv").read_text().strip().splitlines()
        assert lines[0] == "j,n,value"
        assert len(lines) == 1 + 6

    @pytest.mark.parametrize("backend", ["rational", "float:128"])
    def test_triplet_of_p_m_is_its_coefficient_table(self, tmp_path,
                                                     backend):
        # the matrix of convolution by P_15 is the m = 15 table whose rows
        # reach m + N + 1
        f = tmp_path / "p15.csv"
        write_file(f, "# family=jacobi alpha=5/2 beta=3/2\n15,1\n")
        table, matrix = tmp_path / "table.csv", tmp_path / "matrix.csv"
        assert main(["coeffs", "--family", "jacobi", "--alpha", "5/2",
                     "--beta", "3/2", "--m", "15", "--jmax", "36",
                     "--nmax", "20", "--format", "triplet", "--backend",
                     backend, "--out", str(table)]) == 0
        assert main(["matrix", "--f", str(f), "--N", "20", "--format",
                     "triplet", "--backend", backend,
                     "--out", str(matrix)]) == 0
        assert table.read_bytes() == matrix.read_bytes()
        assert table.read_text().count("\n") > 100


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
    def test_report_is_the_recorded_text(self):
        # recorded from the per-pair generic route: a route that drops or
        # adds checks changes a count here
        report = run_verification(6)
        interval = ["jacobi(5/2,3/2)", "jacobi(0,0)", "symmetric_jacobi(5/2)",
                    "gegenbauer(3/2)", "legendre", "chebyshev"]
        assert report.lines == (
            [f"{label}: 583/583 checks passed [ok]" for label in interval]
            + [f"laguerre({a}): 613/613 checks passed [ok]"
               for a in ("0", "1", "5/2")]
            + ["all 5337 checks passed"])
        assert (report.checks, report.failures) == (5337, 0)
        assert report.first_mismatch is None
        deep = run_verification(10)
        assert (deep.checks, deep.failures) == (15561, 0)
        assert deep.lines[-1] == "all 15561 checks passed"

    def test_default_run_passes(self, capsys):
        assert main(["verify", "--max-degree", "2"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAILED" not in out

    def test_generic_data_holds_only_the_degrees_read(self, monkeypatch):
        # the generic table reads b columns to 2D+1 and derivative rows
        # to D, so the data are built to those degrees and no further
        built, init = [], basis.GenericBasisData.__init__

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(basis.GenericBasisData, "__init__", record)
        families = [basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
                    basis.laguerre(1)]
        assert run_verification(3, families).ok
        assert len(built) == 2
        for data in built:
            assert data.max_degree == 7
            assert set(data.b_coeffs) == {(n, k) for n in range(8)
                                          for k in range(n + 1)}
            assert set(data.endpoint_derivs) == {(n, p) for n in range(4)
                                                 for p in range(n + 1)}

    def test_injected_fault_is_reported(self, monkeypatch):
        table_fractions = closed_forms.table_fractions

        def corrupt(spec, max_degree):
            table = table_fractions(spec, max_degree)
            if spec.family is basis.Family.LEGENDRE:
                table[(1, 2)][0] += 1
            return table

        monkeypatch.setattr(closed_forms, "table_fractions", corrupt)
        report = run_verification(max_degree=2)
        assert not report.ok
        label, m, n, j, got, want = report.first_mismatch
        assert (label, m, n, j) == ("legendre", 1, 2, 0)
        assert got != want
        assert any("FIRST MISMATCH" in ln for ln in report.lines)

    @staticmethod
    def _corrupt_table(monkeypatch, module, pair, j):
        """Patch `module.table_fractions` to add 1 to entry j of `pair`."""
        table_fractions = module.table_fractions

        def corrupt(source, max_degree):
            table = table_fractions(source, max_degree)
            table[pair][j] += 1
            return table

        monkeypatch.setattr(module, "table_fractions", corrupt)

    def test_generic_fault_is_reported(self, monkeypatch):
        self._corrupt_table(monkeypatch, generic_conv, (1, 2), 2)
        want = oracle.table_fractions(basis.legendre(), 2)[(1, 2)][2]
        report = run_verification(2, [basis.legendre()])
        assert report.failures == 1
        assert report.first_mismatch == ("legendre", 1, 2, 2, str(want + 1),
                                         str(want))
        assert report.lines[0].endswith("[FAILED]")
        assert report.lines[-1] == (f"FIRST MISMATCH family=legendre m=1 "
                                    f"n=2 j=2 generic={want + 1} "
                                    f"oracle={want}")

    def test_faults_are_reported_in_cell_order(self, monkeypatch):
        # a pair's cells are walked in j, closed before generic at each j,
        # so a generic fault at a lower j comes first
        self._corrupt_table(monkeypatch, closed_forms, (1, 2), 3)
        self._corrupt_table(monkeypatch, generic_conv, (1, 2), 1)
        report = run_verification(2, [basis.legendre()])
        assert report.failures == 2
        assert report.first_mismatch[:4] == ("legendre", 1, 2, 1)
        assert " generic=" in report.lines[-1]
        checks = report.checks
        assert report.lines[0] == (f"legendre: {checks - 2}/{checks} checks "
                                   "passed [FAILED]")

    def test_engine_zero_band_fault_is_reported(self, monkeypatch):
        # the zero-band checks read the engine's columns, so a nonzero
        # there fails, where a closed form returns its zero by branch
        iter_columns = engine.iter_columns

        def corrupt(spec, weights, nmax):
            for n, col in enumerate(iter_columns(spec, weights, nmax)):
                if (spec.family is basis.Family.LEGENDRE and weights == {1: 1}
                        and n == 8):
                    values = list(engine.cells(col, len(col[0])))
                    values[3] += 1
                    col = over_lcm(values)
                yield col

        monkeypatch.setattr(engine, "iter_columns", corrupt)
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
