"""Command-line interface.

Commands:

* ``coeffs``    - write rho_{j,n}^m for fixed m over a (j, n) grid
* ``figure``    - write the magnitude grid (log10 |rho|, exact zeros as -inf)
* ``matrix``    - build the convolution matrix of a series file
* ``convolve``  - convolve two series files
* ``verify``    - certify the closed forms against the exact oracle

Exit codes: 0 success, 1 computation or verification failure, 2 usage
error.  Series files are CSV with a family header comment and exact
`index,value` rows, so rational runs round-trip byte for byte.
"""

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import basis, closed_forms, convmat, generic_conv, oracle
from .basis import FamilySpec, GenericBasisData
from .errors import PolyconvError
from .scalars import RATIONAL, FloatBackend


def _parse_backend(text: str):
    if text == "rational":
        return RATIONAL
    if text == "float":
        return FloatBackend(256)
    if text.startswith("float:"):
        return FloatBackend(int(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(
        f"unknown backend {text!r}; use 'rational' or 'float:<bits>'"
    )


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


@dataclass
class JobConfig:
    """A fully parsed, validated command invocation."""

    command: str
    spec: FamilySpec | None = None
    m: int = 0
    jmax: int = 0
    nmax: int = 0
    n_cols: int = 0
    max_degree: int = 6
    f_path: str | None = None
    g_path: str | None = None
    backend: object = RATIONAL
    out: str | None = None
    fmt: str = "csv"


def _config_from_args(args) -> JobConfig:
    backend = getattr(args, "backend", RATIONAL)
    spec = None
    if getattr(args, "family", None) is not None:
        raw = {"family": args.family}
        for key in ("alpha", "beta"):
            v = getattr(args, key, None)
            if v is not None:
                raw[key] = v
        if getattr(args, "lam", None) is not None:
            raw["lambda"] = args.lam
        # parameters stay exact: --backend rounds only the written entries
        spec = basis.spec_from_config(raw)
    return JobConfig(
        command=args.command,
        spec=spec,
        m=getattr(args, "m", 0),
        jmax=getattr(args, "jmax", 0),
        nmax=getattr(args, "nmax", 0),
        n_cols=getattr(args, "N", -1) + 1,
        max_degree=getattr(args, "max_degree", 6),
        f_path=getattr(args, "f", None),
        g_path=getattr(args, "g", None),
        backend=backend,
        out=getattr(args, "out", None),
        fmt=getattr(args, "fmt", "csv"),
    )


def _family_options(sub):
    sub.add_argument("--family", required=True,
                     choices=[f.value for f in basis.Family])
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


def write_series(series: convmat.SeriesCoeffs, stream) -> None:
    config = series.family.to_config()
    header = " ".join(f"{k}={v}" for k, v in config.items())
    stream.write(f"# {header}\n")
    for idx, value in enumerate(series.coeffs):
        stream.write(f"{idx},{value}\n")


def read_series(path: str, backend=RATIONAL) -> convmat.SeriesCoeffs:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise PolyconvError(f"{path}: missing family header comment")
    config = {}
    for token in lines[0][1:].split():
        key, _, value = token.partition("=")
        config[key] = value
    spec = basis.spec_from_config(config, backend=backend)
    entries = {}
    for ln in lines[1:]:
        idx_text, _, value_text = ln.partition(",")
        entries[int(idx_text)] = backend.make(value_text)
    coeffs = [entries.get(i, backend.zero()) for i in range(max(entries) + 1)]
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


def run_verification(max_degree: int = 6, families=None,
                     perturb=None) -> VerificationReport:
    """Desk-scale certification: closed forms vs. the exact oracle, the
    family-agnostic formulas, zero regions, and symmetry scalings.

    `perturb(label, m, n, j, value) -> value` lets a test harness inject a
    fault into the closed-form values to check mismatch reporting.
    """
    families = default_verify_families() if families is None else families
    lines = []
    checks = failures = 0
    first = None

    def closed(spec, label, m, n, j):
        v = closed_forms.rho_closed(spec, m, n, j)
        return perturb(label, m, n, j, v) if perturb is not None else v

    for spec in families:
        label = spec.label()
        fam_checks = fam_failures = 0
        data = GenericBasisData.from_family(spec, 2 * max_degree + 1)
        for m in range(max_degree + 1):
            for n in range(m, max_degree + 1):
                truth = oracle.oracle_rho(spec, m, n)
                generic = generic_conv.rho_vector(data, m, n)
                for j in range(m + n + 2):
                    got = closed(spec, label, m, n, j)
                    fam_checks += 2
                    if got != truth[j]:
                        fam_failures += 1
                        if first is None:
                            first = (label, m, n, j, str(got), str(truth[j]))
                    if generic[j] != truth[j]:
                        fam_failures += 1
                        if first is None:
                            first = (label, m, n, j, str(generic[j]),
                                     str(truth[j]))
        # zero bands, checked through the closed forms on a taller range
        for m in range(3):
            for n in range(2 * m + 2, 2 * m + 12):
                band = closed_forms.zero_region(spec, m, n)
                if band is None:
                    continue
                for j in range(band[0], band[1] + 1):
                    fam_checks += 1
                    got = closed(spec, label, m, n, j)
                    if got != 0:
                        fam_failures += 1
                        if first is None:
                            first = (label, m, n, j, str(got), "0")
        status = "ok" if fam_failures == 0 else "FAILED"
        lines.append(f"{label}: {fam_checks - fam_failures}/{fam_checks} "
                     f"checks passed [{status}]")
        checks += fam_checks
        failures += fam_failures

    if failures == 0:
        lines.append(f"all {checks} checks passed")
    else:
        label, m, n, j, got, want = first
        lines.append(
            f"FIRST MISMATCH family={label} m={m} n={n} j={j} "
            f"closed={got} oracle={want}"
        )
    return VerificationReport(lines, checks, failures, first)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _open_out(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_coeffs(config: JobConfig) -> int:
    table = closed_forms.rho_table(config.spec, config.m, config.jmax,
                                   config.nmax).to_backend(config.backend)
    stream, close = _open_out(config.out)
    try:
        closed_forms.write_rho_csv(table, stream, fmt=config.fmt)
    finally:
        if close:
            stream.close()
    return 0


def cmd_figure(config: JobConfig) -> int:
    grid = closed_forms.magnitude_grid(config.spec, config.m, config.jmax,
                                       config.nmax)
    stream, close = _open_out(config.out)
    try:
        closed_forms.write_magnitude_csv(grid, stream)
    finally:
        if close:
            stream.close()
    return 0


def cmd_matrix(config: JobConfig) -> int:
    f = read_series(config.f_path)
    matrix = convmat.build_matrix(f, config.n_cols).to_backend(config.backend)
    stream, close = _open_out(config.out)
    try:
        if config.fmt == "csv":
            convmat.write_matrix_dense_csv(matrix, stream)
        else:
            convmat.write_matrix_triplet_csv(matrix, stream)
    finally:
        if close:
            stream.close()
    return 0


def cmd_convolve(config: JobConfig) -> int:
    f = read_series(config.f_path, backend=config.backend)
    g = read_series(config.g_path, backend=config.backend)
    c = convmat.convolve_series(f, g)
    stream, close = _open_out(config.out)
    try:
        write_series(c, stream)
    finally:
        if close:
            stream.close()
    return 0


def cmd_verify(config: JobConfig) -> int:
    report = run_verification(max_degree=config.max_degree)
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
        config = _config_from_args(args)
        return handlers[config.command](config)
    except PolyconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
