"""Benchmark worker: set up one workload, then run passes on command.

``run.py`` starts this script in its own process with BLAS pinned to one
thread and ``PYTHONPATH`` pointing at the package to measure: the
checkout's ``src``, or the frozen baseline copy in ``bench/baseline``.
After the set-up the worker prints one JSON line and then serves commands
read from stdin, one per line, answering each with one JSON line on stdout:

* ``job <j>``: run job ``j`` of the workload once through
  ``mscatter.cli.run`` and check its output; answers its wall and CPU
  seconds;
* ``pass 0`` / ``pass 1``: run every job once, in order, untraced / traced;
  answers the pass's wall and CPU seconds;
* ``startup``: time a fresh ``python -m mscatter.cli --version``;
* ``finish``: answer the run's record (counts, failures, counters, peak
  RSS, environment and, after traced passes, the per-layer metrics) and exit.

The caller decides the schedule, so passes of two workers can alternate.
Anything the package prints goes to stderr, never into the answers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# Per-layer metrics read straight off the span self times (seconds per pass).
SELF_TIME_METRICS = {
    "cli.self_s": "cli.run",
    "cli.read_csv_s": "cli.read_csv",
    "cli.read_groups_s": "cli.read_groups",
    "distribution.build_s": "distribution.build",
    "distribution.existence_s": "distribution.existence",
    "rho.validate_s": "rho.validate",
    "solver.iterate_s": "solver.iterate",
    "solver.hessian_s": "solver.hessian",
    "solver.procov_s": "solver.procov",
    "location.fit_s": "location.fit",
    "asymptotics.influence_s": "asymptotics.influence",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--package", required=True,
                   help="directory the mscatter package must be imported from")
    p.add_argument("--setup-reps", type=int, default=1)
    p.add_argument("--record-reference", action="store_true")
    return p.parse_args(argv)


def blas_info():
    """Version, configuration and effective thread count of each loaded OpenBLAS."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if cfg is not None and threads is not None and "config" not in entry:
                    cfg.restype = ctypes.c_char_p
                    entry["config"] = cfg().decode()
                    entry["threads"] = int(threads())
        out.append(entry)
    return out


def time_startup():
    """Wall time of a fresh ``python -m mscatter.cli --version``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "mscatter.cli", "--version"],
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("mscatter "):
        raise RuntimeError(f"mscatter --version failed: {proc.stderr.strip()}")
    return elapsed


def main(argv=None):
    args = parse_args(argv)
    # Answers go to the original stdout; whatever else is printed goes to stderr.
    answers = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def answer(obj):
        answers.write(json.dumps(obj) + "\n")
        answers.flush()

    # Import cost is part of set-up, so the package and numpy load here.
    t_import = time.perf_counter()
    import numpy as np
    import scipy
    from mscatter import cli

    import_s = time.perf_counter() - t_import
    import checks  # these two load numpy, so they come after the timed import
    from workloads import TINY_WORKLOADS, WORKLOADS, job_argv, job_name, write_inputs

    expected = os.path.realpath(os.path.join(args.package, "mscatter"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != expected:
        sys.exit(f"mscatter was imported from {cli.__file__}, not from {expected}")

    workload = (TINY_WORKLOADS if args.tiny else WORKLOADS)[args.workload]
    warm = TINY_WORKLOADS[args.workload]
    dirs = {k: os.path.join(args.workdir, k) for k in ("inputs", "warm", "out")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)

    # Set-up: draw and write the inputs, then warm every code path on tiny
    # inputs.  Repeated so that set-up time can be reported as a median.
    setup_times = []
    for _ in range(args.setup_reps):
        t0 = time.perf_counter()
        paths, data = write_inputs(workload, args.seed, dirs["inputs"])
        warm_paths, _ = write_inputs(warm, args.seed, dirs["warm"])
        warm_out = os.path.join(dirs["warm"], "out.json")
        for job in warm.jobs:
            cli.run(job_argv(job, warm_paths) + ["--out", warm_out])
        setup_times.append(time.perf_counter() - t0)

    jobs = workload.jobs
    outs = [os.path.join(dirs["out"], f"job{j}.json") for j in range(len(jobs))]
    argvs = [job_argv(job, paths) + ["--out", out] for job, out in zip(jobs, outs)]
    reference = {}
    if args.seed == DEFAULT_SEED and not args.tiny and os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh).get(args.workload, {})

    state = {"attempted": 0, "failed": 0, "problems": [], "flags": [],
             "counters": {}, "docs": [None] * len(jobs)}

    def run_job(j, tracer=None):
        """Run job ``j`` once, check its output and record its counters."""
        if os.path.exists(outs[j]):
            os.remove(outs[j])
        call = cli.run
        if tracer is not None:
            tracer.job = j
            call = tracer.span(tracing.ROOT, cli.run)
        n_spans = len(tracer.spans) if tracer is not None else 0
        w0, c0 = time.perf_counter(), time.process_time()
        code = call(argvs[j])
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0

        try:
            with open(outs[j], encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            doc = None
        problems = checks.check_job(jobs[j], code, doc, data)
        name = job_name(jobs[j])
        if not problems and name in reference:
            problems = checks.compare_fingerprint(checks.fingerprint(doc), reference[name])
        state["attempted"] += 1
        if problems:
            state["failed"] += 1
            state["problems"].append(f"{name}: {'; '.join(problems)}")
        counters = {
            "iterations": doc["iterations"] if doc else None,
            "method": doc["existence"]["method"] if doc and doc.get("existence") else None,
        }
        if tracer is not None:
            counters["existence_calls"] = sum(
                1 for sp in tracer.spans[n_spans:] if sp[0] == "distribution.existence")
        state["counters"].setdefault((tracer is not None, j), []).append(counters)
        state["docs"][j] = doc
        return wall, cpu

    def run_pass(traced):
        """Every job once, in order; traced passes record spans."""
        tracer = tracing.Tracer() if traced else None
        if traced:
            tracer.install()
        try:
            times = [run_job(j, tracer) for j in range(len(jobs))]
        finally:
            if traced:
                tracer.uninstall()
        return {"wall": sum(t[0] for t in times), "cpu": sum(t[1] for t in times),
                "spans": tracer.spans if traced else [], "docs": list(state["docs"])}

    answer({"setup_s": import_s + statistics.median(setup_times), "import_s": import_s,
            "setup_reps": setup_times, "jobs": len(jobs)})
    passes = {False: [], True: []}
    for line in sys.stdin:
        command = line.split()
        if command[:1] == ["job"]:
            wall, cpu = run_job(int(command[1]))
            answer({"wall": wall, "cpu": cpu})
        elif command[:1] == ["pass"]:
            p = run_pass(command[1] == "1")
            passes[command[1] == "1"].append(p)
            answer({"wall": p["wall"], "cpu": p["cpu"]})
        elif command == ["startup"]:
            answer({"startup": time_startup()})
        elif command == ["finish"]:
            break
        else:
            sys.exit(f"unknown command {line.strip()!r}")
    else:
        sys.exit("stdin closed before finish")

    for (traced, j), seq in sorted(state["counters"].items()):
        if any(c != seq[0] for c in seq):
            state["flags"].append(f"{'traced' if traced else 'untraced'} runs of job {j} "
                                  f"disagree on counters: {seq}")
    traced = bool(passes[True])
    first = [state["counters"][traced, j][0] for j in range(len(jobs))
             if (traced, j) in state["counters"]]
    methods = [c["method"] for c in first if c["method"] is not None]
    counters = {
        "solver.iterations": sum(c["iterations"] or 0 for c in first),
        "distribution.proven_ratio": (
            sum(m == "exact_enumeration" for m in methods) / len(methods) if methods else 0.0),
    }
    if traced:
        counters["distribution.existence_calls"] = sum(c["existence_calls"] for c in first)

    if args.record_reference:
        record_reference(args.workload, jobs, state["docs"])

    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "problems": state["problems"][:20],
        "flags": state["flags"],
        "counters": counters,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
        },
    }
    if traced:
        spans_path = os.path.join(args.workdir, "spans.jsonl")
        tracing.write_spans(spans_path, [p["spans"] for p in passes[True]])
        result["spans_file"] = spans_path
        result["per_layer"] = per_layer(passes[True], passes[False], workload, counters, state)
    answer(result)


def per_layer(traced, untraced, workload, counters, state):
    """Median per-pass layer metrics over the traced passes."""
    rows = []
    for p in traced:
        selfs = tracing.self_times(p["spans"])
        row = {m: selfs.get(name, (0.0, 0))[0] for m, name in SELF_TIME_METRICS.items()}
        iters = counters["solver.iterations"]
        row["solver.iter_ms"] = 1000.0 * row["solver.iterate_s"] / iters if iters else 0.0
        se_obs = sum(d["n"] for d in p["docs"] if d and d.get("se"))
        row["asymptotics.influence_ms_per_obs"] = (
            1000.0 * row["asymptotics.influence_s"] / se_obs if se_obs else 0.0)
        unaccounted = p["wall"] - tracing.root_time(p["spans"])
        row["trace.unaccounted_s"] = unaccounted
        row["trace.unaccounted_share"] = unaccounted / p["wall"]
        row["trace.dominant_share"] = sum(
            selfs.get(name, (0.0, 0))[0] for name in workload.dominant) / p["wall"]
        rows.append(row)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out.update(counters)  # counts repeat exactly; no median
    # Traced and untraced passes alternate; pairing neighbours cancels most
    # of the machine's slow drift.
    out["trace.overhead_s"] = statistics.median(
        t["wall"] - u["wall"] for t, u in zip(traced, untraced))
    out["fail_ratio"] = state["failed"] / state["attempted"]
    out["trace.passes"] = len(traced)
    return out


def record_reference(workload, jobs, docs):
    """Store the fingerprints of one pass as the default-seed reference."""
    from checks import fingerprint
    from workloads import job_name

    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    ref[workload] = {job_name(job): fingerprint(doc) for job, doc in zip(jobs, docs)}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
