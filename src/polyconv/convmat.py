"""Convolution matrices, coefficient tables and series convolution.

A finite series f = sum_m a_m P_m defines a convolution operator acting on
series in the same basis.  Against a degree-N target the operator is the
(M+N+2) x (N+1) matrix R with

    R[j][n] = sum_m a_m rho_{j,n}^m,

so the coefficients of f * g are c = R b.  The coefficient table of fixed
m is the one-term case f = P_m: its entries are rho^m_{j,n}, and
`rho_table` keeps its rows j <= jmax.  `ConvMatrix` is the one table type
for both.  This module owns the series and table types, their products
and their writers; the columns, their layout and its readers are the
column engine's (``engine``).  R and a table keep the columns of one
engine run, weighted by the a_m or by the single weight 1 at m, and
``convolve_series`` weights a run by the factor of higher degree, keeps
only the columns at the other factor's degrees and combines them with
that factor's coefficients.
`SeriesCoeffs` wraps each exact value as it is at the rational backend,
or rounds it once at a float one, and makes one zero Scalar for all the
zeros.  The writers print each row as one joined string.
`SeriesCoeffs` and `ConvMatrix` are records (``scalars._Record``): equal
when their fields are, unhashable, and each checked or wrapped in its
constructor; `ConvMatrix.to_backend` builds a new one.
"""

from .basis import FamilySpec
# unused here: the benchmark's trace (bench/tracing.py) wraps this name
from .closed_forms import rho_closed_vector  # noqa: F401
from .engine import combine, cut, iter_columns, rows, write_jn_rows
from .errors import FamilyMismatchError, IndexContractError
from .scalars import _Record, exact


def _described(spec: FamilySpec) -> str:
    """The family's label and its output backend, which `FamilySpec`
    equality includes and `label` leaves out."""
    return f"{spec.label()} at {spec.backend.name}"


class SeriesCoeffs(_Record):
    """Coefficients of a finite expansion in a family basis; index =
    degree.  Each coefficient is made in the family's backend, so a float
    backend rounds it.  Every zero coefficient (0, Fraction(0) or a zero
    Scalar), which fills most of a sparse product, is one Scalar per
    series, made when the first is met and shared, which is safe since a
    Scalar is immutable; a falsy non-number such as None raises."""

    _fields = ("family", "coeffs")

    def __init__(self, family: FamilySpec, coeffs: list):
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        make = family.backend.make
        made, zero = [], None
        for c in coeffs:
            if c or exact(c):
                made.append(make(c))
            else:
                if zero is None:
                    zero = make(0)
                made.append(zero)
        self.family = family
        self.coeffs = made

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class ConvMatrix(_Record):
    """The matrix of convolution by a fixed series, its rows j < n_rows,
    kept as its int columns (nums, den), each cut to those rows and zero
    below its end.  `build_matrix` keeps every row, n_rows = M + n_cols + 1
    for a series of degree M; `rho_table` keeps the rows j <= jmax of the
    one-term series P_m.  `entries[j][n]` makes every cell in the family's
    backend on each read, so bind it once before a loop; the writers make
    none."""

    _fields = ("family", "n_rows", "columns")

    def __init__(self, family: FamilySpec, n_rows: int, columns: list):
        self.family = family
        self.n_rows = n_rows
        self.columns = columns

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def entries(self) -> list:
        make = self.family.backend.make
        return [[make(v) for v in row]
                for row in rows(self.columns, self.n_rows)]

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
                            combine(self.columns, _weights(b), self.n_rows))

    def to_backend(self, backend) -> "ConvMatrix":
        """The matrix whose entries are read rounded to `backend`."""
        return ConvMatrix(self.family.to_backend(backend), self.n_rows,
                          self.columns)


def _weights(series: SeriesCoeffs) -> dict:
    """The nonzero coefficients of `series` by degree, as exact Fractions
    (a float coefficient counts as its exact binary value).  The last zero
    met is skipped by identity, so the zeros of a series that shares one
    zero Scalar cost no value test after the first."""
    weights, zero = {}, None
    for m, c in enumerate(series.coeffs):
        if c is not zero:
            if c.value:
                weights[m] = c.value
            else:
                zero = c
    return weights


def build_matrix(f: SeriesCoeffs, n_cols: int) -> ConvMatrix:
    """Assemble R for the operator `convolve with f` on N+1 = n_cols
    coefficient vectors; shape (M + N + 2) x (N + 1).

    The columns R[., n] = sum_m a_m rho^m_{., n}, n = 0..N, come from one
    exact engine run weighted by the a_m; an entry is rounded to the
    series' backend only when it is read."""
    if n_cols < 1:
        raise ValueError("the matrix needs at least one column")
    return ConvMatrix(f.family, f.degree + n_cols + 1,
                      list(iter_columns(f.family, _weights(f), n_cols - 1)))


def rho_table(spec: FamilySpec, m: int, jmax: int, nmax: int) -> ConvMatrix:
    """rho^m_{j,n} for j <= jmax, n <= nmax: the matrix of convolution by
    P_m on its rows j <= jmax, filled exactly by the engine's run of the
    single weight 1 at m, each column cut to those rows as it is drawn
    (rows past a column's end m + n + 1 read as zero); an entry is rounded
    to the spec's backend only when it is read."""
    if jmax < 0:
        raise IndexContractError("jmax must be nonnegative")
    return ConvMatrix(spec, jmax + 1,
                      cut(iter_columns(spec, {m: 1}, nmax), jmax + 1))


def convolve_series(f: SeriesCoeffs, g: SeriesCoeffs) -> SeriesCoeffs:
    """Coefficients of the convolution f * g, length M + N + 2, computed
    exactly and rounded once to the series' backend.

    By commutativity, rho^m_{j,n} = rho^n_{j,m}, so the factor of higher
    degree weights one engine run that stops at the other factor's degree,
    the run's columns at the other factor's degrees are kept as they are
    drawn, and the result is their combination with that factor's
    coefficients: O(min(M, N) (M + N)) exact operations."""
    if f.family != g.family:
        raise FamilyMismatchError(f"cannot convolve {_described(f.family)} "
                                  f"with {_described(g.family)}")
    long, short = _weights(f), _weights(g)
    if max(short, default=-1) > max(long, default=-1):
        long, short = short, long
    cols = {}
    if short:
        stream = iter_columns(f.family, long, max(short))
        cols = {n: col for n, col in enumerate(stream) if n in short}
    return SeriesCoeffs(f.family,
                        combine(cols, short, f.degree + g.degree + 2))


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
    zero = fmt(0)
    for row in rows(matrix.columns, matrix.n_rows):
        stream.write(",".join([fmt(v) if v else zero for v in row]) + "\n")


def write_rho_csv(matrix: ConvMatrix, stream, fmt: str = "csv") -> None:
    """Write a table as `j,n,value` rows.  The `csv` format lists every
    cell; `triplet` keeps only the nonzero entries for sparse
    inspection."""
    form = matrix.family.backend.format
    write_jn_rows(rows(matrix.columns, matrix.n_rows), form, stream,
                  None if fmt == "triplet" else form(0))
