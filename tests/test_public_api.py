"""The package's public surface: the exports resolve, the README tour
runs, and values cross it with fixed types.  A deleted or renamed name
fails here and not in a user's code.  Inside the package every exact value
is an int or Fraction; a Scalar is made only where a value leaves it."""

import io
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polyconv
from polyconv import (basis, cli, clear_caches, closed_forms as cf, convmat,
                      engine, generic_conv, oracle)
from polyconv.scalars import (RATIONAL, FloatBackend, Scalar, hyp_pfq,
                              hyp_pfq_ints, pochhammer, pochhammer_ints)

from conftest import reference_families

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves_once():
    names = polyconv.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(polyconv, name)]
    assert missing == []


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    src = os.path.dirname(os.path.dirname(polyconv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_import_loads_no_dataclasses():
    # every command pays its imports at start-up; `dataclasses` would add
    # `inspect`, `ast`, `dis` and `tokenize`, more than the package's own
    # modules cost
    src = os.path.dirname(os.path.dirname(polyconv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, polyconv, polyconv.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


JACOBI = basis.jacobi(Fraction(5, 2), Fraction(3, 2))


def _dense_series(spec, degree, seed):
    rng = random.Random(seed)
    return convmat.SeriesCoeffs(spec, [
        Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        for _ in range(degree + 1)])


def _products():
    f, g = _dense_series(JACOBI, 6, 1), _dense_series(JACOBI, 5, 2)
    convmat.convolve_series(f, g)
    matrix = convmat.build_matrix(f, 6)
    for _ in range(20):
        matrix.matvec(g)


def _tables():
    convmat.rho_table(basis.legendre(), 6, 14, 14)
    cf.magnitude_grid(basis.legendre(), 6, 14, 14)


def _closed_vectors():
    for spec in (JACOBI, basis.gegenbauer(Fraction(3, 2)), basis.chebyshev(),
                 basis.laguerre(Fraction(5, 2))):
        cf.rho_closed_vector(spec, 3, 7)


def _generic_route():
    data = basis.GenericBasisData.from_family(JACOBI, 11)
    generic_conv.rho_vector(data, 3, 5)
    generic_conv.rho_vector(data, 2, 7)


def _certification():
    oracle.oracle_rho(JACOBI, 3, 5)
    cf.symmetry_factor(JACOBI, 1, 4, 6)
    cf.bateman_tensor(3, JACOBI.alpha, JACOBI.beta)
    assert cli.run_verification(2).ok


@pytest.mark.parametrize("work", [_products, _tables, _closed_vectors,
                                  _generic_route, _certification],
                         ids=["products", "tables", "closed_vectors",
                              "generic_route", "certification"])
def test_package_does_no_scalar_arithmetic(monkeypatch, work):
    # Scalar operators are for callers; the package computes on ints and
    # Fractions and wraps a value once, where it leaves
    calls = []
    binop = Scalar._binop

    def counted(self, other, op):
        calls.append(op)
        return binop(self, other, op)

    monkeypatch.setattr(Scalar, "_binop", counted)
    clear_caches()
    work()
    assert len(calls) == 0


def test_package_calls_no_fraction_wrapper(monkeypatch, tmp_path, capsys):
    # every formula reads the int cores; the cached Fraction wrappers
    # `pochhammer` and `hyp_pfq` are for callers outside the package.  Each
    # module name bound to them raises when called, and keeps its
    # attributes, so `clear_caches` still reaches the cache
    from polyconv import scalars

    calls = []

    class Forbidden:
        def __init__(self, name, func):
            self.name, self.func = name, func

        def __call__(self, *args, **kwargs):
            calls.append(self.name)
            raise AssertionError(f"a package path called {self.name}")

        def __getattr__(self, attr):
            return getattr(self.func, attr)

    wrappers, guarded = (scalars.pochhammer, scalars.hyp_pfq), set()
    for module in (scalars, basis, cf, convmat, generic_conv, oracle, cli):
        for name, value in list(vars(module).items()):
            if any(value is w for w in wrappers):
                label = f"{module.__name__.split('.')[-1]}.{name}"
                monkeypatch.setattr(module, name, Forbidden(label, value))
                guarded.add(label)
    assert guarded >= {"scalars.pochhammer", "scalars.hyp_pfq",
                       "basis.hyp_pfq", "closed_forms.hyp_pfq",
                       "closed_forms._poch"}
    clear_caches()

    assert cli.run_verification(3).ok
    for spec in reference_families():
        cf.rho_closed_vector(spec, 3, 8)
        cf.rho_closed_vector(spec, 5, 4)
        basis.GenericBasisData.from_family(spec, 7)
        if spec.family is not basis.Family.LAGUERRE:
            cf.symmetry_factor(spec, 1, 4, 6)
    cf.bateman_tensor(4, JACOBI.alpha, JACOBI.beta)

    f, g = tmp_path / "f.csv", tmp_path / "g.csv"
    f.write_text("# family=jacobi alpha=5/2 beta=3/2\n0,1/3\n1,-2\n3,7/5\n")
    g.write_text("# family=jacobi alpha=5/2 beta=3/2\n0,2\n2,-1/9\n")
    for argv in (["coeffs", "--family", "legendre", "--m", "3", "--jmax",
                  "9", "--nmax", "9"],
                 ["figure", "--family", "chebyshev", "--m", "3", "--jmax",
                  "9", "--nmax", "9"],
                 ["matrix", "--f", str(f), "--N", "6"],
                 ["convolve", "--f", str(f), "--g", str(g)],
                 ["verify", "--max-degree", "2"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert calls == []


def test_figure_path_makes_no_fraction_cells(monkeypatch, tmp_path):
    # the figure grid reads log10 |rho| straight off the engine's int
    # columns and its writer joins each row: the Fraction row walk, the
    # Fraction cells and the Fraction log10 each raise when called
    from polyconv import scalars

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"the figure path called {name}")
        return call

    for module, name in ((engine, "rows"), (engine, "cells"),
                         (cf, "log10_abs"), (scalars, "log10_abs")):
        label = f"{module.__name__}.{name}"
        monkeypatch.setattr(module, name, forbidden(label))

    for spec in reference_families():
        grid = cf.magnitude_grid(spec, 4, 14, 12)
        cf.write_magnitude_csv(grid, io.StringIO())
    out = tmp_path / "fig.csv"
    assert cli.main(["figure", "--family", "legendre", "--m", "15",
                     "--jmax", "66", "--nmax", "66", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").count("\n") == 1 + 67 * 67


def test_tables_make_no_scalar_until_read(monkeypatch):
    # a table keeps the exact columns; a Scalar is made where a value
    # leaves, here the matvec's output
    legendre = basis.legendre()
    f = convmat.SeriesCoeffs(legendre, [Fraction(1, 3), -2, Fraction(5, 7)])
    g = _dense_series(legendre, 19, 4)
    made = []
    init = Scalar.__init__

    def counted(self, backend, value):
        made.append(value)
        init(self, backend, value)

    monkeypatch.setattr(Scalar, "__init__", counted)
    matrix = convmat.build_matrix(f, 20)
    convmat.rho_table(legendre, 4, 20, 20)
    assert len(made) == 0
    matrix.matvec(g)
    assert len(made) == matrix.n_rows


@pytest.mark.parametrize("backend", [RATIONAL, FloatBackend(128)],
                         ids=["rational", "float128"])
def test_writers_make_no_scalar(monkeypatch, backend):
    # a writer prints each exact entry with backend.format; no cell
    # becomes a Scalar on its way out
    legendre = basis.legendre()
    f = convmat.SeriesCoeffs(legendre, [Fraction(1, 3), -2, 0, Fraction(5, 7)])
    matrix = convmat.build_matrix(f, 12).to_backend(backend)
    table = convmat.rho_table(legendre, 3, 12, 9).to_backend(backend)
    made = []
    init = Scalar.__init__

    def counted(self, tag, value):
        made.append(value)
        init(self, tag, value)

    monkeypatch.setattr(Scalar, "__init__", counted)
    stream = io.StringIO()
    convmat.write_rho_csv(table, stream)
    convmat.write_rho_csv(table, stream, fmt="triplet")
    convmat.write_matrix_dense_csv(matrix, stream)
    convmat.write_rho_csv(matrix, stream, fmt="triplet")
    assert len(made) == 0
    # the csv table alone has 13 x 10 cell lines, the dense matrix 16 rows
    assert stream.getvalue().count("\n") > 13 * 10 + 16


def test_boundary_functions_return_scalars():
    gen = basis.GenericBasisData.from_family(JACOBI, 9)
    req = generic_conv.request(gen, 2, 4, 5)
    low = generic_conv.request(gen, 2, 4, 1)
    f = _dense_series(JACOBI, 3, 3)
    table = convmat.rho_table(JACOBI, 2, 4, 4)
    geg = basis.gegenbauer(Fraction(3, 2))
    values = {
        "alpha": JACOBI.alpha,
        "beta": JACOBI.beta,
        "lam": geg.lam,
        "domain_offset_a": JACOBI.domain_offset_a,
        "rho_closed": cf.rho_closed(JACOBI, 2, 4, 5),
        "rho_closed_vector": cf.rho_closed_vector(geg, 2, 4)[3],
        "symmetry_factor": cf.symmetry_factor(JACOBI, 1, 4, 6),
        "bateman": cf.bateman_tensor(2, Fraction(5, 2),
                                     Fraction(3, 2)).coefficient(1, 1),
        "eval_poly": basis.eval_poly(JACOBI, 3, Fraction(1, 3)),
        "endpoint_derivative": basis.endpoint_derivative(JACOBI, 4, 2),
        "monomial_expansion_b": basis.monomial_expansion_b(JACOBI, 4, 2),
        "rho_taylor": generic_conv.rho_taylor(gen, req),
        "rho_highj": generic_conv.rho_highj(gen, req),
        "rho_lowj": generic_conv.rho_lowj(gen, low),
        "rho_vector": generic_conv.rho_vector(gen, 2, 4)[0],
        "oracle_rho": oracle.oracle_rho(JACOBI, 2, 4)[7],
        "project_to_family": oracle.project_to_family(
            oracle.to_monomial(JACOBI, 3), JACOBI, 0)[2],
        "SeriesCoeffs": f.coeffs[1],
        "rho_table": table.entries[3][2],
        "ConvMatrix": convmat.build_matrix(f, 3).entries[2][1],
        "convolve_series": convmat.convolve_series(f, f).coeffs[4],
        "matvec": convmat.build_matrix(f, 4).matvec(f).coeffs[2],
    }
    assert {k: type(v) for k, v in values.items()} == \
        {k: Scalar for k in values}


def test_internals_return_fractions():
    specs = [JACOBI, basis.legendre(), basis.chebyshev(),
             basis.gegenbauer(Fraction(3, 2)), basis.laguerre(2)]
    values = [pochhammer(3, 0), pochhammer(3, 3), pochhammer(3, -2),
              pochhammer(Fraction(1, 2), 3),
              hyp_pfq([-2, 3], [5], 1), hyp_pfq([0], [], 2)]
    for spec in specs:
        values += basis.eval_polys(spec, 3, 2)
        if spec.family is not basis.Family.LAGUERRE:
            values.append(spec.normalization(0))
    values += basis.eval_polys(basis.generic_monic(), 3, 1)
    # an int / int slipped into a formula makes a float that compares equal
    # to a dyadic Fraction, so the type is what is checked
    assert [type(v) for v in values] == [Fraction] * len(values)


def test_integer_cores_return_ints():
    # the int pairs the engine and the closed forms' sums are built from
    pairs = [pochhammer_ints(1, 2, 3), pochhammer_ints(3, 1, -2),
             hyp_pfq_ints([(-2, 1), (3, 2)], [(5, 3)], (1, 1)),
             cf._jacobi_d_f43(2, 1, 0, 2, 5, 3),
             cf._sym_d_f43(2, 1, 0, 2, 5), cf._cheb_d_f43(2, 1, 0)]
    for spec in [JACOBI, basis.legendre(), basis.chebyshev(),
                 basis.gegenbauer(Fraction(3, 2))]:
        row = spec._row_ints[:3]
        varpi_sum = (cf._sym_varpi_sum if row[1] == row[2]
                     else cf._jacobi_varpi_sum)
        pairs += [varpi_sum(2, 5, 6, 1, 3, row), varpi_sum(5, 2, 1, 1, 1, row),
                  cf._jacobi_d_sum(2, 5, 1, row)]
        for n in range(3):
            pairs += basis.connection_ints(spec, n)
        nums, den = engine.endpoint_runs(spec, [(0, 4)], 3)
        pairs += [(v, den) for v in nums]
    assert all(type(v) is int for pair in pairs for v in pair)


@pytest.mark.parametrize("scalar_first", [True, False])
def test_pochhammer_type_does_not_depend_on_call_order(scalar_first):
    # the cache shares equal Scalar, Fraction and int keys
    for z in (Fraction(2, 7), Fraction(3)):
        calls = [RATIONAL.make(z), z] + ([int(z)] if z.denominator == 1 else [])
        if not scalar_first:
            calls.reverse()
        clear_caches()
        for n in (0, 4, -2):
            assert [type(pochhammer(arg, n)) for arg in calls] == \
                [Fraction] * len(calls)
