"""Convolution matrices and series convolution.

A finite series f = sum_m a_m P_m defines a convolution operator acting on
series in the same basis.  Against a degree-N target the operator is the
(M+N+2) x (N+1) matrix R with

    R[j][n] = sum_m a_m rho_{j,n}^m,

so the coefficients of f * g are c = R b.  Both R and f * g come from one
exact run of ``closed_forms.series_columns``, whose recurrence is linear
in the series: R weights it by the a_m, and ``convolve_series`` weights it
by the factor of higher degree and stops at the other factor's degree.
No closed form is evaluated.  R keeps the columns that run makes, each
int numerators over one positive denominator (nums, den), column n zero
below its end j = M + n + 1 and in its zero band.  Both products are one
combination of columns, `_combine`: int numerators summed over one common
denominator, with a Fraction in lowest terms made per entry only at the
end, where `SeriesCoeffs` rounds it once.
"""

import csv
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .basis import FamilySpec
from .closed_forms import _grid, _rows, _write_jn_rows, series_columns
# unused here: the benchmark's trace (bench/tracing.py) wraps this name
from .closed_forms import rho_closed_vector  # noqa: F401
from .errors import FamilyMismatchError


def _described(spec: FamilySpec) -> str:
    """The family's label and its output backend, which `FamilySpec`
    equality includes and `label` leaves out."""
    return f"{spec.label()} at {spec.backend.name}"


@dataclass
class SeriesCoeffs:
    """Coefficients of a finite expansion in a family basis; index =
    degree.  Each coefficient is made in the family's backend, so a float
    backend rounds it."""

    family: FamilySpec
    coeffs: list

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series needs at least one coefficient")
        self.coeffs = [self.family.backend.make(c) for c in self.coeffs]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_backend(self, backend) -> "SeriesCoeffs":
        """The series with every coefficient rounded to `backend`."""
        if backend == self.family.backend:
            return self
        return SeriesCoeffs(self.family.to_backend(backend), self.coeffs)


@dataclass
class ConvMatrix:
    """The operator matrix of convolution by a fixed series of degree M,
    kept as its int columns (nums, den), n_rows = M + n_cols + 1, column n
    zero below its end.  `entries[j][n]` makes every cell in the family's
    backend on each read, so bind it once before a loop; the writers make
    none."""

    family: FamilySpec
    n_rows: int
    columns: list

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def entries(self) -> list:
        return _grid(self.columns, self.n_rows, self.family.backend.make)

    def matvec(self, b: SeriesCoeffs) -> SeriesCoeffs:
        """R b, computed exactly and rounded once to the family's backend."""
        if b.family != self.family:
            raise FamilyMismatchError(
                f"matrix basis {_described(self.family)} does not match "
                f"series basis {_described(b.family)}"
            )
        if len(b.coeffs) > self.n_cols:
            raise ValueError(
                f"series has {len(b.coeffs)} coefficients but the matrix "
                f"has {self.n_cols} columns"
            )
        return SeriesCoeffs(self.family,
                            _combine(self.columns, _weights(b), self.n_rows))

    def to_backend(self, backend) -> "ConvMatrix":
        """The matrix whose entries are read rounded to `backend`."""
        return replace(self, family=self.family.to_backend(backend))


def _weights(series: SeriesCoeffs) -> dict:
    """The nonzero coefficients of `series` by degree, as exact Fractions
    (a float coefficient counts as its exact binary value)."""
    return {m: c.as_fraction() for m, c in enumerate(series.coeffs) if c != 0}


def _combine(cols: list, weights: dict, size: int) -> list:
    """sum_n w_n cols[n], w_n = weights[n], as `size` exact values: the
    columns' int numerators summed over one common denominator, and a
    Fraction made per entry only at the end."""
    factors = {n: w / cols[n][1] for n, w in weights.items()}
    den = math.lcm(*(f.denominator for f in factors.values()))
    out = [0] * size
    for n, f in factors.items():
        scale = f.numerator * (den // f.denominator)
        for j, v in enumerate(cols[n][0]):
            if v:
                out[j] += scale * v
    return [Fraction(v, den) for v in out]


def build_matrix(f: SeriesCoeffs, n_cols: int) -> ConvMatrix:
    """Assemble R for the operator `convolve with f` on N+1 = n_cols
    coefficient vectors; shape (M + N + 2) x (N + 1).

    The columns R[., n] = sum_m a_m rho^m_{., n}, n = 0..N, come from one
    exact run of `series_columns` weighted by the a_m; an entry is rounded
    to the series' backend only when it is read."""
    if n_cols < 1:
        raise ValueError("the matrix needs at least one column")
    return ConvMatrix(f.family, f.degree + n_cols + 1,
                      series_columns(f.family, _weights(f), n_cols - 1))


def convolve_series(f: SeriesCoeffs, g: SeriesCoeffs) -> SeriesCoeffs:
    """Coefficients of the convolution f * g, length M + N + 2, computed
    exactly and rounded once to the series' backend.

    By commutativity, rho^m_{j,n} = rho^n_{j,m}, so the factor of higher
    degree weights one `series_columns` run that stops at the other
    factor's degree, and the result is the columns' combination with the
    other factor's coefficients: O(min(M, N) (M + N)) exact operations."""
    if f.family != g.family:
        raise FamilyMismatchError(f"cannot convolve {_described(f.family)} "
                                  f"with {_described(g.family)}")
    long, short = _weights(f), _weights(g)
    if max(short, default=-1) > max(long, default=-1):
        long, short = short, long
    cols = series_columns(f.family, long, max(short)) if short else []
    return SeriesCoeffs(f.family,
                        _combine(cols, short, f.degree + g.degree + 2))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_matrix_dense_csv(matrix: ConvMatrix, stream) -> None:
    """Dense row-major CSV of the exact entries in the family's backend;
    the first line is `rows,cols`."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([matrix.n_rows, matrix.n_cols])
    fmt = matrix.family.backend.format
    zero = fmt(Fraction(0))
    for row in _rows(matrix.columns, matrix.n_rows):
        writer.writerow([fmt(v) if v else zero for v in row])


def write_matrix_triplet_csv(matrix: ConvMatrix, stream) -> None:
    """Sparse-inspection triplet format `j,n,value`, nonzero entries only."""
    _write_jn_rows(_rows(matrix.columns, matrix.n_rows),
                   matrix.family.backend.format, stream)
