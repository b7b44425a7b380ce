"""Smoke self-test of the benchmark at tiny input sizes.

Run from the root of a checkout:

    python3 bench/smoke.py

For every workload named in BENCHMARK.json and both trace settings it runs
``run.py --tiny`` and checks that the result line names every metric of
BENCHMARK.json with its unit, that no job failed (``fail_ratio`` 0) and that
the recorded spans nest.  It also checks that the benchmark exits non-zero,
without a result, in a directory holding only BENCHMARK.json and the
benchmark's own files.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from run import WORK  # noqa: E402


def spec_jobs(workload):
    from workloads import TINY_WORKLOADS

    return TINY_WORKLOADS[workload].jobs


def run_bench(spec, workload, trace, cwd):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, workload, trace, proc):
    errors = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        errors.append(f"correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        errors.append(f"metrics/units {got} differ from BENCHMARK.json {wanted}")
    for name, m in result["metrics"].items():
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            errors.append(f"{name} is not a number: {m['value']!r}")
    if trace:
        if result["metrics"]["fail_ratio"]["value"] != 0:
            errors.append("fail_ratio is not 0")
        for k, rows in enumerate(tracing.read_spans(
                os.path.join(WORK, f"{workload}-tiny", "spans.jsonl"))):
            errors += [f"pass {k}: {e}" for e in tracing.nesting_errors(rows)]
            roots = [r for r in rows if r[3] < 0]
            if [r[0] for r in roots] != [tracing.ROOT] * len(spec_jobs(workload)) or \
                    [r[4] for r in roots] != list(range(len(roots))):
                errors.append(f"pass {k}: expected one {tracing.ROOT} root span per job")
            selfs = tracing.self_times(rows)
            if abs(sum(v[0] for v in selfs.values()) - tracing.root_time(rows)) > 1e-6:
                errors.append(f"pass {k}: self times do not add up to the root spans")
            unknown = set(selfs) - set(tracing.SPAN_NAMES)
            if unknown:
                errors.append(f"pass {k}: unknown span names {sorted(unknown)}")
        shares = [result["metrics"][k]["value"] for k in
                  ("trace.dominant_share", "trace.unaccounted_share")]
        if not all(0.0 <= v <= 1.0 for v in shares):
            errors.append(f"layer shares {shares} lie outside [0, 1]")
    return errors


def check_bare_directory(spec):
    """The benchmark must refuse to run where the program is missing."""
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(spec, spec["workloads"][0]["name"], 0, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["benchmark exited 0 in a directory without the program"]
    if any(line.startswith("{") for line in proc.stdout.splitlines()):
        return ["benchmark printed a result in a directory without the program"]
    return []


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    cases = [(w["name"], t) for w in spec["workloads"] for t in (0, 1)]
    for workload, trace in cases:
        errors = check_result(spec, workload, trace, run_bench(spec, workload, trace, "."))
        failures += bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {workload} trace {trace}")
        for e in errors:
            print(f"     {e}")
    errors = check_bare_directory(spec)
    failures += bool(errors)
    print(f"{'FAIL' if errors else 'ok  '} refuses to run without the program")
    for e in errors:
        print(f"     {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
