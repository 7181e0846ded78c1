"""polyconv benchmark.

    python3 bench/run.py --workload figure --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # all four, one after another

Run from the repository root.  Every timed job runs in a fresh interpreter
(bench/job.py) because a command-line user pays for the program's cold
module-level caches on every call; jobs run one after another, each with
one compute thread.  A run repeats the job until --seconds are spent and
reports medians over the jobs, with times scaled to a reference machine
speed by a calibration loop that each job times around its timed calls.
The inputs are generated from --seed (bench/workloads.py) and written as
series CSV files and parameter lists.
After the jobs an untimed gate (bench/checks.py) checks the outputs; any
mismatch counts as a failed operation and makes the run exit 1.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced jobs and prints the per-layer metrics,
including the tracing overhead.  A report with the environment, the sample
counts and the workload-specific figures precedes the final JSON line, and
everything is also written to .bench_out/.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
JOB_TIMEOUT_S = 150
# Median job.calibrate() time on a 2-vCPU Intel Xeon VM at 2.1 GHz.  It
# only sets the scale of the speed-normalized metrics.
REFERENCE_CAL_S = 0.2

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def environment(seed: int) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    import mpmath

    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "seed": seed}


def spawn(workload: str, workdir: str, mode: str) -> dict:
    """Run one job process; return its result with spawn-relative times."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "job.py"), workload, workdir, mode],
        env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} job exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = wall
    if "t_first" in result:
        result["setup_s"] = result["t_first"] - t_spawn
    return result


def measure(workload: str, workdir: str, seconds: float, trace: bool,
            spans_path: str):
    """Jobs until the time is spent, at least one of each kind; with trace,
    untraced and traced jobs alternate.  Stops when the time left is
    shorter than the last iteration."""
    start = time.monotonic()
    plain, traced = [], []
    while True:
        t_iter = time.monotonic()
        mode = "trace" if trace and len(traced) < len(plain) else "run"
        job = spawn(workload, workdir, mode)
        (traced if mode == "trace" else plain).append(job)
        now = time.monotonic()
        if seconds - (now - start) < now - t_iter and (traced or not trace):
            break
    if trace:
        os.replace(os.path.join(workdir, "spans.json"), spans_path)
    return plain, traced


def end_to_end(plain) -> dict:
    """Times are scaled to the reference speed, each sample by the
    calibration its own job made."""
    return {
        "setup_s": median([j["setup_s"] * REFERENCE_CAL_S / j["cal_s"]
                           for j in plain]),
        "cells_per_s": median([j["cells"] * j["cal_s"] / (j["job_s"] * REFERENCE_CAL_S)
                               for j in plain]),
        "peak_rss_mb": median([j["peak_rss_mb"] for j in plain]),
    }


def per_layer(names, plain, traced) -> dict:
    values = {name: median([j["layers"].get(name, 0) for j in traced])
              for name in names}
    scaled = lambda jobs: median([j["job_s"] / j["cal_s"] for j in jobs])
    values["trace.overhead_frac"] = scaled(traced) / scaled(plain) - 1
    return values


def run_workload(workload, seed, seconds, trace, size, bench):
    import checks  # imports the program, which main() has checked for

    tag = f"{workload}-{size}-s{seed}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        data = workloads.generate(workload, size, seed)
        params = workloads.write_inputs(workload, data, workdir)
        plain, traced = measure(workload, workdir, seconds, trace,
                                        os.path.join(OUT, f"spans-{tag}.json"))
        jobs = plain + traced
        last = plain[-1]
        problems = [f"job {k}: {key} digest differs from job 0"
                    for k, job in enumerate(jobs)
                    for key in last["digests"]
                    if job["digests"].get(key) != jobs[0]["digests"].get(key)]
        stored = checks.stored_digests(workload, size, seed)
        found, extra = checks.CHECKS[workload](data, params, last, stored)
        problems += found
        probe = None
        if workload == "deep":
            probe = spawn("probe", workdir, "probe")
            want = checks.stored_digests("probe", size, seed)
            if probe["ok"] and want and probe["digest"] != want["value"]:
                problems.append("probe value differs from its recorded digest")
            elif not probe["ok"] and probe["error"] != "RecursionError":
                problems.append(f"probe failed: {probe['error']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(j["ops"] for j in jobs)
    failed = sum(j["failed"] for j in jobs) + len(problems)
    if trace:
        names = [m["name"] for m in bench["per_layer"]]
        metrics, units = per_layer(names, plain, traced), bench["per_layer"]
    else:
        metrics, units = end_to_end(plain), bench["end_to_end"]
    unit = {m["name"]: m["unit"] for m in units}

    probes = int(probe is not None)
    probe_failed = int(probes and not probe["ok"])
    report = {
        "workload": workload, "size": size, "trace": int(trace),
        "run_seconds": seconds, "env": environment(seed),
        "digests": last["digests"], "digests_recorded": stored is not None,
        "jobs": len(plain), "traced_jobs": len(traced),
        "ops": attempted + probes,
        "ops_failed_frac": (failed + probe_failed) / (attempted + probes),
        "probe": probe, "problems": problems, **extra,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
        "raw_cells_per_s": median([j["cells"] / j["job_s"] for j in plain]),
        "raw_setup_s": median([j["setup_s"] for j in plain]),
        "raw": {"setup_s": [j["setup_s"] for j in plain],
                "cal_s": [j["cal_s"] for j in plain],
                "job_s": [j["job_s"] for j in plain],
                "traced_job_s": [j["job_s"] for j in traced]},
    }
    if workload == "matrix":
        report["matvec_per_s"] = median([j["matvecs"] * j["cal_s"]
                                         / (j["apply_s"] * REFERENCE_CAL_S)
                                         for j in plain])
    if workload == "verify":
        report["checks_per_s"] = median([j["checks"] * j["cal_s"]
                                         / (j["job_s"] * REFERENCE_CAL_S)
                                         for j in plain])
    with open(os.path.join(OUT, f"{tag}-t{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_report(report)
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": report["metrics"]}


def print_report(r: dict) -> None:
    env = r["env"]
    print(f"== {r['workload']} (size {r['size']}, seed {env['seed']}, "
          f"trace {r['trace']}, {r['run_seconds']} s)")
    print(f"   env: cpu={env['cpu']!r} nproc={env['nproc']} "
          f"python={env['python']} mpmath={env['mpmath']} "
          f"backend={env['mpmath_backend']}")
    for name, m in r["metrics"].items():
        n = r["traced_jobs"] if r["trace"] else r["jobs"]
        print(f"   {name:<42} {m['value']:<14.6g} {m['unit']:<6} median of n={n}")
    extra = [("matvec_per_s", "1/s", r["jobs"]), ("checks_per_s", "1/s", r["jobs"]),
             ("max_log10_err", "log10", r.get("checked_cells")),
             ("raw_cells_per_s", "1/s", r["jobs"]),
             ("raw_setup_s", "s", r["jobs"])]
    for name, unit, n in extra:
        if name in r:
            print(f"   {name:<42} {r[name]:<14.6g} {unit:<6} n={n}")
    probe = r["probe"]
    note = ""
    if probe is not None:
        note = (" (cold-cache probe ok)" if probe["ok"] else
                f" (includes the cold-cache probe: {probe['error']}, a known defect)")
    print(f"   {'ops_failed_frac':<42} {r['ops_failed_frac']:<14.6g} {'1':<6} "
          f"n={r['ops']}{note}")
    print(f"   digests recorded for this seed: {r['digests_recorded']}")
    for p in r["problems"]:
        print(f"   MISMATCH: {p}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny is for the self-test")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "polyconv", "__init__.py")):
        print("error: run from the repository root; src/polyconv is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    compileall.compile_dir(os.path.join(SRC, "polyconv"), quiet=1)

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, seconds, bool(args.trace),
                               args.size, bench) for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
