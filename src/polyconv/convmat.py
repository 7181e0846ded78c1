"""Convolution matrices, coefficient tables and series convolution.

A finite series f = sum_m a_m P_m defines a convolution operator acting on
series in the same basis.  Against a degree-N target the operator is the
(M+N+2) x (N+1) matrix R with

    R[j][n] = sum_m a_m rho_{j,n}^m,

so the coefficients of f * g are c = R b.  The coefficient table of fixed
m is the one-term case f = P_m: its entries are rho^m_{j,n}, and
`rho_table` keeps its rows j <= jmax.  `ConvMatrix` is the one table type
for both.  R, the tables and f * g all come from one exact run of
``closed_forms.series_columns``, whose recurrence is linear in the series:
R weights it by the a_m, a table by the single weight 1 at m, and
``convolve_series`` by the factor of higher degree, stopping at the other
factor's degree.  No closed form is evaluated.  A table keeps the columns
that run makes, each int numerators over one positive denominator
(nums, den), cut to its rows and zero below its end and in its zero band.
Both products are one combination of columns, `_combine`: each weight
over its column's denominator an int pair in lowest terms, the int
numerators summed over one common denominator, and at the end a Fraction
in lowest terms made per nonzero entry and one shared zero for the rest.
`SeriesCoeffs` wraps each as it is at the rational backend, or rounds it
once at a float one.  The writers print each row as one joined string.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .basis import FamilySpec
from .closed_forms import (_ZERO, _rows, _write_jn_rows, rho_columns,
                           series_columns)
# unused here: the benchmark's trace (bench/tracing.py) wraps this name
from .closed_forms import rho_closed_vector  # noqa: F401
from .errors import FamilyMismatchError, IndexContractError


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


@dataclass
class ConvMatrix:
    """The matrix of convolution by a fixed series, its rows j < n_rows,
    kept as its int columns (nums, den), each cut to those rows and zero
    below its end.  `build_matrix` keeps every row, n_rows = M + n_cols + 1
    for a series of degree M; `rho_table` keeps the rows j <= jmax of the
    one-term series P_m.  `entries[j][n]` makes every cell in the family's
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
        make = self.family.backend.make
        return [[make(v) for v in row]
                for row in _rows(self.columns, self.n_rows)]

    def matvec(self, b: SeriesCoeffs) -> SeriesCoeffs:
        """R b on the matrix's rows, computed exactly and rounded once to
        the family's backend."""
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
    return {m: c.value for m, c in enumerate(series.coeffs) if c.value}


def _combine(cols: list, weights: dict, size: int) -> list:
    """sum_n w_n cols[n], w_n = weights[n], as `size` exact values.  Each
    factor w_n / den_n is an int pair in lowest terms, one gcd each; the
    columns' int numerators are summed over the lcm of the factors'
    denominators, and a Fraction in lowest terms is made per nonzero sum
    only at the end.  Every zero sum is one shared zero."""
    factors = []
    for n, w in weights.items():
        p, q = w.numerator, w.denominator * cols[n][1]
        g = math.gcd(p, q)
        factors.append((n, p // g, q // g))
    den = math.lcm(*(q for _, _, q in factors))
    out = [0] * size
    for n, p, q in factors:
        scale = p * (den // q)
        for j, v in enumerate(cols[n][0]):
            if v:
                out[j] += scale * v
    return [Fraction(v, den) if v else _ZERO for v in out]


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


def rho_table(spec: FamilySpec, m: int, jmax: int, nmax: int) -> ConvMatrix:
    """rho^m_{j,n} for j <= jmax, n <= nmax: the matrix of convolution by
    P_m on its rows j <= jmax, filled exactly by `rho_columns`, each column
    cut to those rows when the table is made (rows past a column's end
    m + n + 1 read as zero); an entry is rounded to the spec's backend only
    when it is read."""
    if jmax < 0:
        raise IndexContractError("jmax must be nonnegative")
    cols = rho_columns(spec, m, nmax)
    for nums, _ in cols:
        del nums[jmax + 1:]
    return ConvMatrix(spec, jmax + 1, cols)


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
    the first line is `rows,cols`.  Each row is one joined string: a
    nonzero cell rounded once by the backend's `format`, a zero cell the
    text made once per write.  No field ever holds a comma, quote or
    newline, so the lines are the ones a `csv.writer` would write."""
    stream.write(f"{matrix.n_rows},{matrix.n_cols}\n")
    fmt = matrix.family.backend.format
    zero = fmt(_ZERO)
    for row in _rows(matrix.columns, matrix.n_rows):
        stream.write(",".join([fmt(v) if v else zero for v in row]) + "\n")


def write_rho_csv(matrix: ConvMatrix, stream, fmt: str = "csv") -> None:
    """Write a table as `j,n,value` rows.  The `csv` format lists every
    cell; `triplet` keeps only the nonzero entries for sparse
    inspection."""
    form = matrix.family.backend.format
    _write_jn_rows(_rows(matrix.columns, matrix.n_rows), form, stream,
                   None if fmt == "triplet" else form(_ZERO))
