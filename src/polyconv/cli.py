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
rounds the written values only.  `main` and `read_series` lift CPython's
limit on int <-> str conversion (4,300 digits) while they run, and
restore it after; `--out` is written to a temporary file next to it and
renamed over it only when the command succeeds (`_output` names the
paths written in place).  Every command pays the interpreter's start-up
and the package's imports, which at the paper's sizes take longer than
its compute; the record classes, `VerificationReport` among them, are
plain classes (``scalars._Record``), so no command loads `dataclasses`
and `inspect`.
"""

import argparse
import os
import stat
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import basis, closed_forms, convmat, engine, generic_conv, oracle
from .basis import FamilySpec, GenericBasisData
from .errors import PolyconvError
from .scalars import RATIONAL, FloatBackend, _Record


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
    p.add_argument("--N", type=_nonnegative, required=True,
                   help="degree N of the input series; the matrix has N+1 "
                        "columns")
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


@contextmanager
def _unlimited_int_digits():
    """Lift CPython's limit on the digits of an int <-> str conversion
    (4,300 by default since 3.11, 3.10.7 and 3.9.14) for the block, and
    restore it after.  An exact value of a high-degree product has more
    digits than that.  Without `sys.set_int_max_str_digits` there is no
    limit, and nothing to do.  The limit is process-wide, so a thread
    converting meanwhile sees it lifted too."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def _malformed(path: str, no: int, line: str, cause: str) -> PolyconvError:
    """The error for a series row that does not parse: its file, line and
    cause, and the row quoted, cut to its first 80 characters, with its
    length, when it is longer."""
    got = repr(line) if len(line) <= 80 else (
        f"{line[:80]!r}... ({len(line)} characters)")
    return PolyconvError(f"{path}:{no}: expected 'index,value' with an "
                         f"integer index and a rational value, got {got}: "
                         f"{cause}")


def write_series(series: convmat.SeriesCoeffs, stream, backend=None) -> None:
    """Write a series file: the family header, then `index,value` rows of
    each coefficient printed by `backend.format` (by default the series'
    own backend), so an exact coefficient is rounded once.  Outside `main`,
    a value of more digits than CPython's int <-> str limit raises its
    ValueError."""
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
    a byte that is not UTF-8; a row is echoed cut to 80 characters.  A
    UTF-8 byte-order mark is skipped.  Indices left out are zero.  A value
    may have any number of digits: CPython's int <-> str limit is lifted
    while the file is parsed."""
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
    with _unlimited_int_digits():
        for no, ln in lines[1:]:
            idx_text, _, value_text = ln.partition(",")
            try:
                idx = int(idx_text)
            except ValueError:
                raise _malformed(path, no, ln,
                                 "the index is not an integer") from None
            try:
                value = Fraction(value_text)
            except ValueError:
                raise _malformed(path, no, ln,
                                 "the value is not a rational number") from None
            except ZeroDivisionError:
                raise _malformed(path, no, ln,
                                 "the value has a zero denominator") from None
            if idx < 0:
                raise PolyconvError(f"{path}:{no}: negative index {idx}")
            if idx in entries:
                raise PolyconvError(f"{path}:{no}: index {idx} given twice")
            entries[idx] = value
    if not entries:
        raise PolyconvError(f"{path}:{header_no}: header has no "
                            "coefficient rows")
    # the degrees left out are 0, which the series makes one zero Scalar for
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


class VerificationReport(_Record):
    """The report of `run_verification`: its printed lines, the number of
    checks and failures, and the first mismatch or None."""

    _fields = ("lines", "checks", "failures", "first_mismatch")

    def __init__(self, lines: list, checks: int, failures: int,
                 first_mismatch: tuple | None):
        self.lines = lines
        self.checks = checks
        self.failures = failures
        self.first_mismatch = first_mismatch

    @property
    def ok(self) -> bool:
        return self.failures == 0


def run_verification(max_degree: int = 6, families=None) -> VerificationReport:
    """Desk-scale certification: the closed forms and the family-agnostic
    formulas against the exact oracle, and the zero bands of the engine
    every table command runs, `engine.iter_columns`.  Per family the
    oracle, the family-agnostic route and the closed forms each serve
    every pair from one table of Fractions (`oracle.table_fractions`,
    `generic_conv.table_fractions`, `closed_forms.table_fractions`).  Each
    pair's two route vectors count m + n + 2 checks each and are compared
    with the oracle's whole; only a vector that differs is walked cell by
    cell, in j and closed before generic at each j, so the mismatches come
    in the order a cell-by-cell walk would find them.  The zero bands are
    tested on the engine's int numerators, a Fraction made only for a
    nonzero cell, which is a mismatch; every check compares exact values.
    The family-agnostic route's connection data are built only to the
    degrees it reads: the b columns to 2 max_degree + 1 (`basis.b_table`)
    and the derivative rows to max_degree (`basis.derivative_table`).  The
    report's last line names the first mismatch and the route its value
    came from: `closed=`, `generic=` or `engine=`."""
    families = default_verify_families() if families is None else families
    lines, mismatches = [], []
    checks = 0
    for spec in families:
        label = spec.label()
        checks_before, failures_before = checks, len(mismatches)
        truths = oracle.table_fractions(spec, max_degree)
        top = 2 * max_degree + 1
        data = GenericBasisData(spec.domain_offset_a, top,
                                basis.b_table(spec, top),
                                basis.derivative_table(spec, max_degree),
                                spec.backend)
        generics = generic_conv.table_fractions(data, max_degree)
        closeds = closed_forms.table_fractions(spec, max_degree)
        for m in range(max_degree + 1):
            for n in range(m, max_degree + 1):
                truth = truths[(m, n)]
                routes = (("closed", closeds[(m, n)]),
                          ("generic", generics[(m, n)]))
                checks += len(routes) * (m + n + 2)
                if all(got == truth for _, got in routes):
                    continue
                for j in range(m + n + 2):
                    for route, got in routes:
                        if got[j] != truth[j]:
                            mismatches.append((label, m, n, j, str(got[j]),
                                               str(truth[j]), route))
        # zero bands, read from one engine run per m on a taller range
        for m in range(3):
            cols = list(engine.iter_columns(spec, {m: 1}, 2 * m + 11))
            for n in range(2 * m + 2, 2 * m + 12):
                band = closed_forms.zero_region(spec, m, n)
                if band is None:
                    continue
                nums, den = cols[n]
                checks += band[1] - band[0] + 1
                for j in range(band[0], band[1] + 1):
                    if nums[j]:
                        mismatches.append((label, m, n, j,
                                           str(Fraction(nums[j], den)), "0",
                                           "engine"))
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
    """The `--out` stream, or stdout when no path is given.  A regular
    file (or a new one) is written as a temporary file in its directory,
    renamed over it, with its mode, only when the block succeeds: a failed
    command leaves the file as it was and no temporary file behind.  The
    rename makes a new file, so the old one's other hard links and its
    owner do not carry over.  A symlink is followed, so the file it names
    is replaced.  A path that exists but is no regular file, such as
    /dev/stdout, or a file in a directory that refuses the temporary file,
    is written in place."""
    if path is None:
        yield sys.stdout
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    target = os.path.realpath(path) if os.path.islink(path) else path
    temp = f"{target}.{os.urandom(4).hex()}.tmp"
    fh = None
    if mode is None or stat.S_ISREG(mode):
        try:
            fh = open(temp, "x", encoding="utf-8")
        except OSError as exc:  # name the file asked for, not the temporary one
            if mode is None or not isinstance(exc, PermissionError):
                raise OSError(exc.errno, exc.strerror, path) from None
    if fh is None:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        with fh:
            yield fh
        if mode is not None:
            os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, target)
    except BaseException:
        os.remove(temp)
        raise


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
        with _unlimited_int_digits():
            return handlers[args.command](args)
    except (PolyconvError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
