"""The untimed correctness gate, run in the benchmark process after the jobs.

Each check returns a list of mismatch messages (empty when the outputs are
right) and the values it measured.  Exact outputs are compared with the
SHA-256 digests stored in digests.json for the seeds recorded there.
Seeded samples of `matrix`, `deep` and `figure` cells are recomputed
through the family-agnostic formulas of `generic_conv`, which share no code
with the closed forms; the `figure` cells are also recomputed at the
rational backend to measure the float error.  `verify` must report ok with
the expected number of checks.
"""

import json
import math
import os
from fractions import Fraction

import workloads

from polyconv import basis, closed_forms, generic_conv

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")
LOG10_TOLERANCE = 1e-9


def stored_digests(workload: str, size: str, seed: int):
    """Recorded digests for this run, or None when none were recorded."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        table = json.load(fh).get(size, {}).get(workload, {})
    return table.get("*", table.get(str(seed)))


def compare_digests(got: dict, want, keys) -> list:
    if want is None:
        return []
    return [f"digest of {key} is {got.get(key)}, recorded {want[key]}"
            for key in keys if got.get(key) != want[key]]


class _Lazy(dict):
    """Connection data computed on first use, so the generic route can
    reach degrees in the hundreds without building the whole table."""

    def __init__(self, fn):
        super().__init__()
        self._fn = fn

    def __missing__(self, key):
        value = self[key] = self._fn(*key)
        return value

    def get(self, key, default=None):
        # every key exists; GenericBasisData checks leading entries with get
        return self[key]


def lazy_basis_data(spec) -> basis.GenericBasisData:
    # max_degree only bounds the eager leading-entry check in __post_init__
    return basis.GenericBasisData(
        spec.domain_offset_a, 0,
        _Lazy(lambda n, k: basis.monomial_expansion_b(spec, n, k)),
        _Lazy(lambda n, p: basis.endpoint_derivative(spec, n, p)),
        spec.backend)


def generic_cell(data, m: int, n: int, j: int) -> Fraction:
    """rho_{j,n}^m through the family-agnostic formulas."""
    if m > n:
        m, n = n, m
    if j > m + n + 1:
        return Fraction(0)
    req = generic_conv.request(data, m, n, j)
    cell = (generic_conv.rho_lowj(data, req) if j <= m
            else generic_conv.rho_highj(data, req))
    return cell.as_fraction()


def _exact_log10(v: Fraction) -> float:
    v = abs(v)
    return math.log10(v.numerator) - math.log10(v.denominator)


def check_figure(data, params, job, stored):
    problems = compare_digests(job["digests"], stored,
                               [f"zero_mask-{i}" for i in range(len(params["panes"]))])
    grids = []
    for pane in params["panes"]:
        with open(pane["out"], encoding="utf-8") as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()[1:]]
        grids.append({(int(j), int(n)): v for j, n, v in rows})
        shape = (pane["jmax"] + 1) * (pane["nmax"] + 1)
        if len(rows) != shape:
            problems.append(f"{pane['out']}: {len(rows)} cells, expected {shape}")
    specs = [basis.spec_from_config({"family": p["family"]}) for p in params["panes"]]
    generic = [lazy_basis_data(spec) for spec in specs]
    worst = 0.0
    for pane_index, j, n in data["sample"]:
        pane, spec = params["panes"][pane_index], specs[pane_index]
        exact = closed_forms.rho_closed(spec, pane["m"], n, j).as_fraction()
        got = grids[pane_index].get((j, n))
        where = f"{pane['family']} m={pane['m']} j={j} n={n}"
        if exact != generic_cell(generic[pane_index], pane["m"], n, j):
            problems.append(f"{where}: rational closed form differs from the "
                            "generic route")
        if exact == 0:
            if got != "-inf":
                problems.append(f"{where}: exact zero written as {got}")
            continue
        if got is None or got == "-inf":
            problems.append(f"{where}: nonzero cell written as {got}")
            continue
        err = abs(float(got) - _exact_log10(exact))
        worst = max(worst, err)
        if not err <= LOG10_TOLERANCE:
            problems.append(f"{where}: log10 error {err:.3g}")
    return problems, {"max_log10_err": worst, "checked_cells": len(data["sample"])}


def check_matrix(data, params, job, stored):
    problems = compare_digests(job["digests"], stored, ["R", "matvec"])
    matrix = workloads.read_matrix(params["out"])
    spec = basis.spec_from_config(data["family"])
    gen = lazy_basis_data(spec)
    for j, n in data["sample"]:
        want = sum(a * generic_cell(gen, m, n, j) for m, a in enumerate(data["f"]))
        if matrix[j][n] != want:
            problems.append(f"R[{j}][{n}] = {matrix[j][n]}, generic route {want}")
    products = workloads.read_vectors(params["matvec_out"])
    if len(products) != len(data["b"]):
        problems.append(f"{len(products)} matvec outputs for {len(data['b'])} inputs")
    for k, (b, out) in enumerate(zip(data["b"], products)):
        want = [sum(row[i] * b[i] for i in range(len(b))) for row in matrix]
        if out != want:
            problems.append(f"matvec {k} differs from R b")
    return problems, {"checked_cells": len(data["sample"]) + sum(map(len, products))}


def check_deep(data, params, job, stored):
    problems = compare_digests(job["digests"], stored, ["convolutions"])
    checked = 0
    for p, files in zip(data["pairs"], params["pairs"]):
        out = workloads.read_series_values(files["out"])
        spec = basis.spec_from_config(p["family"])
        m, n1, n2 = p["m"], p["n1"], p["n2"]
        if len(out) > m + n2 + 2:
            problems.append(f"{files['out']}: {len(out)} coefficients, "
                            f"expected at most {m + n2 + 2}")
            continue
        out += [Fraction(0)] * (m + n2 + 2 - len(out))
        gen = lazy_basis_data(spec)
        for j in p["sample"]:
            want = p["a"] * (p["b1"] * generic_cell(gen, m, n1, j)
                             + p["b2"] * generic_cell(gen, m, n2, j))
            checked += 1
            if out[j] != want:
                problems.append(f"{spec.label()} c[{j}] = {out[j]}, "
                                f"generic route {want}")
    return problems, {"checked_cells": checked}


def check_verify(data, params, job, stored):
    problems = compare_digests(job["digests"], stored, ["report"])
    if not job.get("ok"):
        problems.append("verify reported a mismatch: " + job["lines"][-1])
    if stored is not None and job.get("checks") != stored["checks"]:
        problems.append(f"verify ran {job.get('checks')} checks, "
                        f"expected {stored['checks']}")
    return problems, {"checks": job.get("checks", 0)}


CHECKS = {"figure": check_figure, "matrix": check_matrix, "deep": check_deep,
          "verify": check_verify}
