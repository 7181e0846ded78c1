"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Run from the repository root.  Every workload runs at the tiny size,
untraced and traced.  Each run must exit 0 with a correct result whose last
line names every metric of BENCHMARK.json for its mode, each with its
unit, and the traced and untraced runs must report identical output
digests, so the tracing wrappers change no result.  Last, the benchmark
must fail, without printing a result, in a directory that holds only
BENCHMARK.json and bench/.  Exits 1 if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = 7


def run(args, cwd="."):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        before = len(failures)
        digests = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", name, "--seed", str(SEED), "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny"])
            where = f"{name} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: result {result}")
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics {got} differ from {want}")
            with open(f".bench_out/{name}-tiny-s{SEED}-t{trace}.json",
                      encoding="utf-8") as fh:
                digests[trace] = json.load(fh)["digests"]
        if len(digests) == 2 and digests[0] != digests[1]:
            failures.append(f"{name}: traced digests {digests[1]} differ from "
                            f"untraced {digests[0]}")
        print(f"{name}: {'ok' if len(failures) == before else 'FAILED'}",
              flush=True)

    bare = os.path.join(".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("bench", os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "figure", "--seed", str(SEED), "--seconds", "1",
                "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for f in failures:
        print("FAIL:", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
