"""Workload definitions: sizes, seeded inputs, and digests of exact outputs.

Every input is drawn from ``random.Random("<workload>:<seed>")``, so one seed
always gives the same inputs.  The seed varies values only (series
coefficients, matvec inputs, the order of the verified families, the cells
the correctness gate samples); degrees and grid shapes are fixed per size,
so the work a job does, and with it the timing, does not depend on the seed.

Full sizes keep one cold-process job at about 2 s on a 2-core machine, so
that about ten jobs fit in one measured run and the run reports medians.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("figure", "matrix", "deep", "verify")

JACOBI = {"family": "jacobi", "alpha": "5/2", "beta": "3/2"}

VERIFY_FAMILIES = [
    JACOBI,
    {"family": "jacobi", "alpha": "0", "beta": "0"},
    {"family": "symmetric_jacobi", "alpha": "5/2"},
    {"family": "gegenbauer", "lambda": "3/2"},
    {"family": "legendre"},
    {"family": "chebyshev"},
    {"family": "laguerre", "alpha": "0"},
    {"family": "laguerre", "alpha": "1"},
    {"family": "laguerre", "alpha": "5/2"},
]

# deep: one pair per closed-form family; f = a P_m, g = b1 P_n1 + b2 P_n2.
# n2 - n1 stays below 2m + 3, so every cell the gate samples lies in the
# single-sum regime of both vectors, where the generic route is cheap.
DEEP_PAIRS = [
    (JACOBI, 4, 150, 156),
    ({"family": "symmetric_jacobi", "alpha": "5/2"}, 4, 160, 166),
    ({"family": "gegenbauer", "lambda": "3/2"}, 5, 150, 158),
    ({"family": "legendre"}, 6, 250, 262),
    ({"family": "chebyshev"}, 4, 150, 158),
    ({"family": "laguerre", "alpha": "5/2"}, 12, 380, 400),
]

SIZES = {
    "full": {
        # Legendre is the paper's m = 15, 67 x 67 pane; the Chebyshev pane
        # is cut to m = 6 on 41 x 41 (zero band included) to fit the job.
        "figure": {"panes": [("legendre", 15, 66, 66), ("chebyshev", 6, 40, 40)],
                   "checked_cells": 20},
        "matrix": {"family": JACOBI, "M": 15, "N": 8, "matvecs": 200,
                   "checked_cells": 4},
        "deep": {"pairs": DEEP_PAIRS, "checked_cells": 2},
        "verify": {"families": VERIFY_FAMILIES, "max_degree": 6},
    },
    "tiny": {
        "figure": {"panes": [("legendre", 3, 8, 8), ("chebyshev", 3, 8, 8)],
                   "checked_cells": 4},
        "matrix": {"family": JACOBI, "M": 3, "N": 3, "matvecs": 5,
                   "checked_cells": 2},
        "deep": {"pairs": [(JACOBI, 2, 20, 22), ({"family": "laguerre", "alpha": "5/2"}, 2, 20, 24)],
                 "checked_cells": 2},
        "verify": {"families": VERIFY_FAMILIES[:3], "max_degree": 2},
    },
}


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))


def generate(workload: str, size: str, seed: int) -> dict:
    """The inputs of one run, as plain data."""
    rng = random.Random(f"{workload}:{seed}")
    cfg = SIZES[size][workload]
    if workload == "figure":
        # half the checked cells in the rows j <= m, where the float sums
        # cancel most; the rest anywhere below the degree bound j <= m+n+1
        sample = []
        for pane, (_, m, jmax, nmax) in enumerate(cfg["panes"]):
            for k in range(cfg["checked_cells"]):
                n = rng.randint(0, nmax)
                top = m if k % 2 else min(jmax, m + n + 1)
                sample.append((pane, rng.randint(0, top), n))
        return {"panes": cfg["panes"], "sample": sample}
    if workload == "matrix":
        rows, cols = cfg["M"] + cfg["N"] + 2, cfg["N"] + 1
        return {
            "family": cfg["family"], "N": cfg["N"],
            "f": [_rational(rng) for _ in range(cfg["M"] + 1)],
            "b": [[_rational(rng) for _ in range(cols)]
                  for _ in range(cfg["matvecs"])],
            "sample": [(rng.randrange(rows), rng.randrange(cols))
                       for _ in range(cfg["checked_cells"])],
        }
    if workload == "deep":
        pairs = []
        for family, m, n1, n2 in cfg["pairs"]:
            lo = max(m + 1, n2 - m - 1)
            pairs.append({
                "family": family, "m": m, "n1": n1, "n2": n2,
                "a": _rational(rng), "b1": _rational(rng), "b2": _rational(rng),
                "sample": [rng.randint(lo, m + n2 + 1)
                           for _ in range(cfg["checked_cells"])],
            })
        return {"pairs": pairs}
    if workload == "verify":
        families = list(cfg["families"])
        rng.shuffle(families)
        return {"families": families, "max_degree": cfg["max_degree"]}
    raise ValueError(f"unknown workload {workload!r}")


def write_series(path: str, family: dict, coeffs: dict) -> None:
    """Series CSV in the program's input format; `coeffs` maps degree to value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in family.items()) + "\n")
        for idx in sorted(coeffs):
            fh.write(f"{idx},{coeffs[idx]}\n")


def write_inputs(workload: str, data: dict, workdir: str) -> dict:
    """Write the generated inputs as files and return the job parameters
    (also stored as params.json) that a job process reads."""
    path = lambda name: os.path.join(workdir, name)
    if workload == "figure":
        params = {"panes": [
            {"family": fam, "m": m, "jmax": jmax, "nmax": nmax,
             "out": path(f"figure-{i}.csv")}
            for i, (fam, m, jmax, nmax) in enumerate(data["panes"])]}
    elif workload == "matrix":
        write_series(path("f.csv"), data["family"], dict(enumerate(data["f"])))
        with open(path("b.csv"), "w", encoding="utf-8") as fh:
            for k, vec in enumerate(data["b"]):
                fh.writelines(f"{k},{i},{v}\n" for i, v in enumerate(vec))
        params = {"f": path("f.csv"), "N": data["N"], "b": path("b.csv"),
                  "out": path("R.csv"), "matvec_out": path("matvec.csv")}
    elif workload == "deep":
        params = {"pairs": []}
        for i, p in enumerate(data["pairs"]):
            write_series(path(f"f-{i}.csv"), p["family"], {p["m"]: p["a"]})
            write_series(path(f"g-{i}.csv"), p["family"],
                         {p["n1"]: p["b1"], p["n2"]: p["b2"]})
            params["pairs"].append({"f": path(f"f-{i}.csv"),
                                    "g": path(f"g-{i}.csv"),
                                    "out": path(f"c-{i}.csv")})
    else:
        params = {"families": data["families"],
                  "max_degree": data["max_degree"]}
    with open(path("params.json"), "w", encoding="utf-8") as fh:
        json.dump(params, fh)
    return params


def digest(values) -> str:
    """SHA-256 of a nested list of exact values in canonical text form."""
    text = json.dumps(values, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def read_series_values(path: str) -> list:
    """Dense coefficient list of a series CSV, parsed independently of the
    program (missing degrees are zero)."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    entries = {int(i): Fraction(v) for i, _, v in (r.partition(",") for r in rows)}
    return [entries.get(i, Fraction(0)) for i in range(max(entries) + 1)]


def read_matrix(path: str) -> list:
    """Rows of a dense matrix CSV whose first line is `rows,cols`."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows, cols = map(int, lines[0].split(","))
    matrix = [[Fraction(v) for v in ln.split(",")] for ln in lines[1:]]
    if len(matrix) != rows or any(len(r) != cols for r in matrix):
        raise ValueError(f"{path}: shape differs from its header {rows}x{cols}")
    return matrix


def read_vectors(path: str) -> list:
    """Vectors of a `k,index,value` CSV, in order of k."""
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            k, i, v = ln.strip().split(",")
            vectors.setdefault(int(k), {})[int(i)] = Fraction(v)
    return [[vec[i] for i in range(len(vec))] for _, vec in sorted(vectors.items())]
