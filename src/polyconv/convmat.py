"""Convolution matrices and series convolution.

A finite series f = sum_m a_m P_m defines a convolution operator acting on
series in the same basis.  Against a degree-N target the operator is the
dense (M+N+2) x (N+1) matrix R with

    R[j][n] = sum_m a_m rho_{j,n}^m,

so the coefficients of f * g are c = R b.  R is filled column by column
with the exact recurrence of ``closed_forms.rho_columns``;
``convolve_series`` touches only the cells it needs and evaluates them
from the closed forms, which suits sparse, high-degree series.  Storage is
dense on purpose:
sparsity of R is an observation about its entries, not a format, at the
desk scales this package targets.
"""

import csv
from dataclasses import dataclass
from fractions import Fraction

from .basis import FamilySpec
from .closed_forms import rho_closed_vector, rho_columns
from .errors import FamilyMismatchError
from .scalars import RATIONAL


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
    """The operator matrix of convolution by a fixed series."""

    family: FamilySpec
    f_coeffs: SeriesCoeffs
    n_cols: int
    entries: list  # (M + n_cols + 1) rows of n_cols scalars

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    def matvec(self, b: SeriesCoeffs) -> SeriesCoeffs:
        if b.family != self.family:
            raise FamilyMismatchError(
                f"matrix basis {self.family.label()} does not match series "
                f"basis {b.family.label()}"
            )
        if len(b.coeffs) > self.n_cols:
            raise ValueError(
                f"series has {len(b.coeffs)} coefficients but the matrix "
                f"has {self.n_cols} columns"
            )
        out = [RATIONAL.zero()] * self.n_rows
        for n, bn in enumerate(b.coeffs):
            if bn == 0:
                continue
            for j in range(self.n_rows):
                out[j] = out[j] + self.entries[j][n] * bn
        return SeriesCoeffs(self.family, out)

    def to_backend(self, backend) -> "ConvMatrix":
        """The matrix with every entry rounded to `backend`."""
        if backend == self.family.backend:
            return self
        entries = [[v.to_backend(backend) for v in row]
                   for row in self.entries]
        return ConvMatrix(self.family.to_backend(backend),
                          self.f_coeffs.to_backend(backend), self.n_cols,
                          entries)


def _rho_cache(spec: FamilySpec):
    cache = {}

    def vec(m: int, n: int) -> list:
        key = (m, n) if m <= n else (n, m)
        if key not in cache:
            cache[key] = rho_closed_vector(spec, *key)
        return cache[key]

    return vec


def build_matrix(f: SeriesCoeffs, n_cols: int) -> ConvMatrix:
    """Assemble R for the operator `convolve with f` on N+1 = n_cols
    coefficient vectors; shape (M + N + 2) x (N + 1).

    Each nonzero a_m contributes the columns rho^m_{., n}, n = 0..N, filled
    by the exact recurrence of `rho_columns`.  Entries are accumulated
    exactly (a float coefficient counts as its exact binary value) and
    rounded to the series' backend only once, at the end."""
    if n_cols < 1:
        raise ValueError("the matrix needs at least one column")
    spec = f.family
    big_n = n_cols - 1
    rows = f.degree + big_n + 2
    exact = [[Fraction(0)] * n_cols for _ in range(rows)]
    for m, am in enumerate(f.coeffs):
        if am == 0:
            continue
        a = am.as_fraction()
        for n, col in enumerate(rho_columns(spec, m, big_n)):
            for j, v in enumerate(col):
                exact[j][n] += a * v
    make = spec.backend.make
    entries = [[make(v) for v in row] for row in exact]
    return ConvMatrix(spec, f, n_cols, entries)


def convolve_series(f: SeriesCoeffs, g: SeriesCoeffs) -> SeriesCoeffs:
    """Coefficients of the convolution f * g, length M + N + 2, summed
    exactly and rounded once to the series' backend."""
    if f.family != g.family:
        raise FamilyMismatchError(
            f"cannot convolve {f.family.label()} with {g.family.label()}"
        )
    spec = f.family
    out = [RATIONAL.zero()] * (f.degree + g.degree + 2)
    rho = _rho_cache(spec)
    for m, am in enumerate(f.coeffs):
        if am == 0:
            continue
        for n, bn in enumerate(g.coeffs):
            if bn == 0:
                continue
            scale = am * bn
            vec = rho(m, n)
            for j in range(m + n + 2):
                out[j] = out[j] + scale * vec[j]
    return SeriesCoeffs(spec, out)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_matrix_dense_csv(matrix: ConvMatrix, stream) -> None:
    """Dense row-major CSV; the first line is `rows,cols`."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([matrix.n_rows, matrix.n_cols])
    for row in matrix.entries:
        writer.writerow([str(v) for v in row])


def write_matrix_triplet_csv(matrix: ConvMatrix, stream) -> None:
    """Sparse-inspection triplet format `j,n,value`, nonzero entries only."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["j", "n", "value"])
    for j, row in enumerate(matrix.entries):
        for n, v in enumerate(row):
            if v != 0:
                writer.writerow([j, n, str(v)])
