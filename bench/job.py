"""One cold-process job of a workload, run by bench/run.py.

    PYTHONPATH=src python3 bench/job.py <workload> <workdir> <mode>

mode `run` times the workload's calls; `trace` does the same with spans
around the program's public functions and writes them to <workdir>;
`probe` evaluates the cold-cache probe cell.  The last line of standard
output is one JSON object.  `t_first` is read from the clock that the parent's spawn time
comes from, so the parent derives the set-up time from it.  `cal_s` is
the mean of calibrate() timed just before and just after the timed calls;
the parent scales the job's times by it.
"""

import json
import os
import resource
import sys
import time
from fractions import Fraction

import tracing
import workloads

from polyconv import basis, cli, closed_forms, convmat

TRACER = None


def calibrate() -> float:
    """Seconds for a fixed loop of rational and dict arithmetic, the kind of
    work the program does.  The host's speed drifts by tens of percent over
    seconds; a loop timed in the same process around the job follows that
    drift, while one timed in the parent before the spawn did not."""
    start = time.perf_counter()
    x = Fraction(1)
    acc = {}
    for i in range(1, 25_000):
        x = (x * Fraction(i + 1, i)) % 7 + Fraction(1, i)
        acc[i % 97] = acc.get(i % 97, 0) + i * i
    return time.perf_counter() - start


def timed(fn, *args):
    """Call fn(*args) with tracing on (in trace mode); return (result, s)."""
    if TRACER is not None:
        TRACER.enabled = True
    start = time.perf_counter()
    try:
        return fn(*args), time.perf_counter() - start
    finally:
        if TRACER is not None:
            TRACER.enabled = False


def prepare(workload: str, params: dict):
    """Parse the generated inputs; untimed, part of set-up."""
    if workload == "matrix":
        family = cli.read_series(params["f"]).family
        return [convmat.SeriesCoeffs(family, vec)
                for vec in workloads.read_vectors(params["b"])]
    if workload == "deep":
        return [(cli.read_series(p["f"]), cli.read_series(p["g"]))
                for p in params["pairs"]]
    if workload == "verify":
        return [basis.spec_from_config(c) for c in params["families"]]
    return None


def _max_digits(values) -> int:
    return max((max(len(str(abs(v.numerator))), len(str(v.denominator)))
                for v in values), default=0)


def run_figure(params, _):
    job_s = 0.0
    failed = 0
    digests = {}
    for i, pane in enumerate(params["panes"]):
        argv = ["figure", "--family", pane["family"], "--m", str(pane["m"]),
                "--jmax", str(pane["jmax"]), "--nmax", str(pane["nmax"]),
                "--out", pane["out"]]
        code, dt = timed(cli.main, argv)
        job_s += dt
        failed += code != 0
        with open(pane["out"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        digests[f"csv-{i}"] = workloads.digest(rows)
        digests[f"zero_mask-{i}"] = workloads.digest(
            [r.rsplit(",", 1)[0] for r in rows if r.endswith(",-inf")])
    cells = sum((p["jmax"] + 1) * (p["nmax"] + 1) for p in params["panes"])
    return {"job_s": job_s, "cells": cells, "ops": len(params["panes"]),
            "failed": failed, "digests": digests, "max_digits": 0}


def run_matrix(params, bs):
    """`polyconv matrix`, then matvec calls on the R that build_matrix
    returned inside it, so a cheaper build that makes R slower to apply
    shows in the job time."""
    argv = ["matrix", "--f", params["f"], "--N", str(params["N"]),
            "--out", params["out"]]
    built = []
    build_matrix = convmat.build_matrix

    def keep(*args):
        built.append(build_matrix(*args))
        return built[-1]

    convmat.build_matrix = keep
    try:
        code, build_s = timed(cli.main, argv)
    finally:
        convmat.build_matrix = build_matrix
    if code != 0:
        return {"job_s": build_s, "cells": 0, "ops": 1 + len(bs),
                "failed": 1 + len(bs), "digests": {}, "max_digits": 0}
    matrix = built[0]
    outs, apply_s = timed(lambda: [matrix.matvec(b) for b in bs])
    products = [[c.as_fraction() for c in out.coeffs] for out in outs]
    with open(params["matvec_out"], "w", encoding="utf-8") as fh:
        for k, vec in enumerate(products):
            fh.writelines(f"{k},{i},{v}\n" for i, v in enumerate(vec))
    values = workloads.read_matrix(params["out"])
    flat = [v for row in values for v in row]
    return {"job_s": build_s + apply_s, "build_s": build_s, "apply_s": apply_s,
            "matvecs": len(bs), "cells": len(flat), "ops": 1 + len(bs),
            "failed": 0,
            "digests": {"R": workloads.digest(values),
                        "matvec": workloads.digest(products)},
            "max_digits": _max_digits(flat)}


def run_deep(params, prepared):
    job_s = 0.0
    outputs = []
    for (f, g), p in zip(prepared, params["pairs"]):
        c, dt = timed(convmat.convolve_series, f, g)
        job_s += dt
        with open(p["out"], "w", encoding="utf-8") as fh:
            cli.write_series(c, fh)
        outputs.append([v.as_fraction() for v in c.coeffs])
    flat = [v for out in outputs for v in out]
    return {"job_s": job_s, "cells": len(flat), "ops": len(outputs),
            "failed": 0, "digests": {"convolutions": workloads.digest(outputs)},
            "max_digits": _max_digits(flat)}


def run_verify(params, families):
    report, job_s = timed(cli.run_verification, params["max_degree"], families)
    return {"job_s": job_s, "cells": report.checks, "ops": 1,
            "failed": int(not report.ok), "checks": report.checks,
            "ok": report.ok, "lines": report.lines,
            "digests": {"report": workloads.digest(sorted(report.lines))},
            "max_digits": 0}


def probe() -> dict:
    """rho_closed(jacobi(5/2, 3/2), 3, 500, 503) on a cold cache.  The
    recursive Pochhammer helper raises RecursionError here from an order of
    about 492 upward; the result is reported, not hidden."""
    spec = basis.spec_from_config(workloads.JACOBI)
    try:
        value = closed_forms.rho_closed(spec, 3, 500, 503)
    except RecursionError:
        return {"ok": False, "error": "RecursionError"}
    except Exception as exc:  # reported to the parent, which fails the run
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"ok": True, "digest": workloads.digest([value.as_fraction()])}


RUNNERS = {"figure": run_figure, "matrix": run_matrix, "deep": run_deep,
           "verify": run_verify}


def cache_values() -> dict:
    out = {}
    f43 = [closed_forms._jacobi_d_f43, closed_forms._sym_d_f43,
           closed_forms._cheb_d_f43]
    for key, caches in (("poch_cache", [closed_forms._poch]), ("f43_cache", f43)):
        infos = [c.cache_info() for c in caches]
        for field in ("hits", "misses", "currsize"):
            out[f"closed_forms.{key}.{field}"] = sum(getattr(i, field)
                                                     for i in infos)
    return out


def main() -> int:
    global TRACER
    workload, workdir, mode = sys.argv[1:4]
    if mode == "probe":
        print(json.dumps(probe()))
        return 0
    with open(os.path.join(workdir, "params.json"), encoding="utf-8") as fh:
        params = json.load(fh)
    if mode == "trace":
        TRACER = tracing.Tracer()
        tracing.install(TRACER)
    prepared = prepare(workload, params)
    t_first = time.monotonic()
    cal_before = calibrate()
    result = RUNNERS[workload](params, prepared)
    result["cal_s"] = (cal_before + calibrate()) / 2
    result["t_first"] = t_first
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024)
    layers = cache_values()
    layers["scalars.max_digits"] = result.pop("max_digits")
    if TRACER is not None:
        layers.update(TRACER.layers())
        calls = layers.get("closed_forms.structural_zero.calls", 0)
        hits = layers.get("closed_forms.structural_zero.hits", 0)
        layers["closed_forms.structural_zero.hit_ratio"] = (
            hits / calls if calls else 0.0)
        TRACER.dump(os.path.join(workdir, "spans.json"))
    result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
