"""Command-line interface.

Commands:

* ``coeffs``    - write rho_{j,n}^m for fixed m over a (j, n) grid
* ``figure``    - write the magnitude grid (log10 |rho|, exact zeros as -inf)
* ``matrix``    - build the convolution matrix of a series file
* ``convolve``  - convolve two series files
* ``verify``    - certify the closed forms against the exact oracle

Exit codes: 0 success, 1 computation or verification failure or a
malformed input file, 2 usage error.  Series files are CSV with a family
header comment and exact `index,value` rows, so rational runs round-trip
byte for byte.  Every command computes exactly; `--backend float:<bits>`
rounds the written values only.
"""

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from . import basis, closed_forms, convmat, generic_conv, oracle
from .basis import FamilySpec, GenericBasisData
from .errors import PolyconvError
from .scalars import RATIONAL, FloatBackend


def _integer(text: str) -> int:
    """`text` as an int.  argparse prints the message of an
    ArgumentTypeError; any other error from a type function it prints as
    `invalid <function name> value`, naming no reason."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None


def _parse_backend(text: str):
    if text == "rational":
        return RATIONAL
    if text == "float":
        return FloatBackend(256)
    if text.startswith("float:"):
        bits = _integer(text.split(":", 1)[1])
        try:
            return FloatBackend(bits)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"unknown backend {text!r}; use 'rational' or 'float:<bits>'"
    )


def _nonnegative(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _family_options(sub):
    # generic sequences have no closed form, so no table command takes them
    sub.add_argument("--family", required=True,
                     choices=[f.value for f in basis.Family
                              if f is not basis.Family.GENERIC_MONIC])
    sub.add_argument("--alpha")
    sub.add_argument("--beta")
    sub.add_argument("--lambda", dest="lam")


def _common_options(sub):
    sub.add_argument("--backend", type=_parse_backend, default=RATIONAL)
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyconv",
        description="Convolution coefficients and matrices for classical "
                    "orthogonal polynomial series",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("coeffs", help="coefficient table for fixed m")
    _family_options(p)
    p.add_argument("--m", type=_nonnegative, required=True)
    p.add_argument("--jmax", type=_nonnegative, required=True)
    p.add_argument("--nmax", type=_nonnegative, required=True)
    p.add_argument("--format", dest="fmt", choices=["csv", "triplet"],
                   default="csv")
    _common_options(p)

    p = commands.add_parser("figure", help="magnitude grid (log10 |rho|)")
    _family_options(p)
    p.add_argument("--m", type=_nonnegative, required=True)
    p.add_argument("--jmax", type=_nonnegative, required=True)
    p.add_argument("--nmax", type=_nonnegative, required=True)
    p.add_argument("--backend", type=_parse_backend, default=RATIONAL,
                   help="has no effect: the grid is computed exactly and "
                        "only log10 rounds")
    p.add_argument("--out", default=None)

    p = commands.add_parser("matrix", help="convolution matrix of a series")
    p.add_argument("--f", required=True, help="series CSV for the fixed factor")
    p.add_argument("--N", type=_positive, required=True,
                   help="number of columns (N+1 for degree-N input)")
    p.add_argument("--format", dest="fmt", choices=["csv", "triplet"],
                   default="csv")
    _common_options(p)

    p = commands.add_parser("convolve", help="convolve two series files")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    _common_options(p)

    p = commands.add_parser("verify",
                            help="certify closed forms against the oracle")
    p.add_argument("--max-degree", type=_nonnegative, default=6)
    return parser


# ---------------------------------------------------------------------------
# series file I/O
# ---------------------------------------------------------------------------


def write_series(series: convmat.SeriesCoeffs, stream, backend=None) -> None:
    """Write a series file: the family header, then `index,value` rows of
    each coefficient printed by `backend.format` (by default the series'
    own backend), so an exact coefficient is rounded once."""
    config = series.family.to_config()
    header = " ".join(f"{k}={v}" for k, v in config.items())
    fmt = (series.family.backend if backend is None else backend).format
    stream.write(f"# {header}\n")
    for idx, value in enumerate(series.coeffs):
        stream.write(f"{idx},{fmt(value.as_fraction())}\n")


def read_series(path: str) -> convmat.SeriesCoeffs:
    """Parse a series file exactly.  Malformed content raises PolyconvError
    naming the file and line: a missing or bad header (a parameter given
    twice, or generic_monic: it has no closed form to convolve with), a
    header with no rows, a row that is not `index,value` with an integer
    index and a rational value, a negative index, an index given twice, or
    a byte that is not UTF-8.  A UTF-8 byte-order mark is skipped.  Indices
    left out are zero."""
    # an undecodable byte b is read as the lone surrogate U+DC00 + b
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
    for no, ln in lines:
        try:
            ln.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(ln[exc.start]) - 0xDC00
            raise PolyconvError(
                f"{path}:{no}: byte 0x{byte:02x} is not UTF-8 text") from None
    if not lines or not lines[0][1].startswith("#"):
        raise PolyconvError(f"{path}: missing family header comment")
    header_no, header = lines[0]
    config = {}
    for token in header[1:].split():
        key, _, value = token.partition("=")
        if key in config:
            raise PolyconvError(f"{path}:{header_no}: bad family header: "
                                f"parameter {key!r} given twice")
        config[key] = value
    try:
        spec = basis.spec_from_config(config)
    except (KeyError, ValueError) as exc:
        raise PolyconvError(f"{path}:{header_no}: bad family header: "
                            f"{exc}") from None
    if spec.family is basis.Family.GENERIC_MONIC:
        raise PolyconvError(f"{path}:{header_no}: bad family header: "
                            "generic_monic has no closed-form convolution")
    entries = {}
    for no, ln in lines[1:]:
        idx_text, _, value_text = ln.partition(",")
        try:
            idx, value = int(idx_text), Fraction(value_text)
        except (ValueError, ZeroDivisionError):
            raise PolyconvError(
                f"{path}:{no}: expected 'index,value' with an integer index "
                f"and a rational value, got {ln!r}") from None
        if idx < 0:
            raise PolyconvError(f"{path}:{no}: negative index {idx}")
        if idx in entries:
            raise PolyconvError(f"{path}:{no}: index {idx} given twice")
        entries[idx] = value
    if not entries:
        raise PolyconvError(f"{path}:{header_no}: header has no "
                            "coefficient rows")
    coeffs = [entries.get(i, 0) for i in range(max(entries) + 1)]
    return convmat.SeriesCoeffs(spec, coeffs)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def default_verify_families() -> list:
    return [
        basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
        basis.jacobi(0, 0),
        basis.symmetric_jacobi(Fraction(5, 2)),
        basis.gegenbauer(Fraction(3, 2)),
        basis.legendre(),
        basis.chebyshev(),
        basis.laguerre(0),
        basis.laguerre(1),
        basis.laguerre(Fraction(5, 2)),
    ]


@dataclass
class VerificationReport:
    lines: list
    checks: int
    failures: int
    first_mismatch: tuple | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def run_verification(max_degree: int = 6, families=None) -> VerificationReport:
    """Desk-scale certification: the closed forms and the family-agnostic
    formulas against the exact oracle, and the zero bands of the engine
    every table command runs, `closed_forms.rho_columns`.  The report's
    last line names the first mismatch and the route its value came from:
    `closed=`, `generic=` or `engine=`."""
    families = default_verify_families() if families is None else families
    lines, mismatches = [], []
    checks = 0

    def check(route, m, n, j, got, want):
        nonlocal checks
        checks += 1
        if got != want:
            mismatches.append((label, m, n, j, str(got), str(want), route))

    for spec in families:
        label = spec.label()
        checks_before, failures_before = checks, len(mismatches)
        data = GenericBasisData.from_family(spec, 2 * max_degree + 1)
        truths = oracle.oracle_table(spec, max_degree)
        for m in range(max_degree + 1):
            for n in range(m, max_degree + 1):
                truth = truths[(m, n)]
                generic = generic_conv.rho_vector(data, m, n)
                for j in range(m + n + 2):
                    check("closed", m, n, j,
                          closed_forms.rho_closed(spec, m, n, j), truth[j])
                    check("generic", m, n, j, generic[j], truth[j])
        # zero bands, read from one engine run per m on a taller range
        for m in range(3):
            cols = closed_forms.rho_columns(spec, m, 2 * m + 11)
            for n in range(2 * m + 2, 2 * m + 12):
                band = closed_forms.zero_region(spec, m, n)
                if band is None:
                    continue
                values = closed_forms._fractions(cols[n])
                for j in range(band[0], band[1] + 1):
                    check("engine", m, n, j, values[j], 0)
        fam_checks = checks - checks_before
        fam_failures = len(mismatches) - failures_before
        status = "ok" if fam_failures == 0 else "FAILED"
        lines.append(f"{label}: {fam_checks - fam_failures}/{fam_checks} "
                     f"checks passed [{status}]")

    first = mismatches[0][:6] if mismatches else None
    if first is None:
        lines.append(f"all {checks} checks passed")
    else:
        label, m, n, j, got, want, route = mismatches[0]
        lines.append(
            f"FIRST MISMATCH family={label} m={m} n={n} j={j} "
            f"{route}={got} oracle={want}"
        )
    return VerificationReport(lines, checks, len(mismatches), first)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


@contextmanager
def _output(path):
    """The `--out` stream: the named file, or stdout when none is given."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _spec(args) -> FamilySpec:
    """The exact family spec named by --family and its parameters."""
    return basis.spec_from_config({"family": args.family, "alpha": args.alpha,
                                   "beta": args.beta, "lambda": args.lam})


def cmd_coeffs(args) -> int:
    table = convmat.rho_table(_spec(args), args.m, args.jmax,
                              args.nmax).to_backend(args.backend)
    with _output(args.out) as stream:
        convmat.write_rho_csv(table, stream, fmt=args.fmt)
    return 0


def cmd_figure(args) -> int:
    grid = closed_forms.magnitude_grid(_spec(args), args.m, args.jmax,
                                       args.nmax)
    with _output(args.out) as stream:
        closed_forms.write_magnitude_csv(grid, stream)
    return 0


def cmd_matrix(args) -> int:
    f = read_series(args.f)
    matrix = convmat.build_matrix(f, args.N + 1).to_backend(args.backend)
    with _output(args.out) as stream:
        if args.fmt == "csv":
            convmat.write_matrix_dense_csv(matrix, stream)
        else:
            convmat.write_rho_csv(matrix, stream, fmt="triplet")
    return 0


def cmd_convolve(args) -> int:
    c = convmat.convolve_series(read_series(args.f), read_series(args.g))
    with _output(args.out) as stream:
        write_series(c, stream, args.backend)
    return 0


def cmd_verify(args) -> int:
    report = run_verification(max_degree=args.max_degree)
    for line in report.lines:
        print(line)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "coeffs": cmd_coeffs,
        "figure": cmd_figure,
        "matrix": cmd_matrix,
        "convolve": cmd_convolve,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (PolyconvError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
