"""Benchmark entry point for the mscatter command line.

Run from the root of a checkout:

    python3 bench/run.py --workload obs-fit --seed 0 --seconds 25 --trace 0

The workload's inputs are drawn from ``--seed`` and written under
``.bench_work/``; a worker process (``worker.py``) with BLAS pinned to one
thread then runs the workload's CLI jobs in a closed loop for ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  A second worker runs the
frozen baseline copy of the package in ``bench/baseline``, and passes of the
two workers alternate (ABBA order), so both see the same state of the
shared host; the times are reported as the median ratio of neighbouring
passes, program over baseline.  ``--trace 1`` alternates traced and
untraced passes of the program alone and reports the per-layer metrics.

Every job's output is checked; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
human-readable report and the run environment come before it, and the full
record is written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".bench_work"
WORKER_TIMEOUT = 160.0
BASELINE = os.path.join(HERE, "baseline")
SETUP_REPS = 3
STARTUP_QUADS = 2
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "MSCATTER_THREADS": "1"}

END_TO_END = {
    "wall_ratio": "ratio",
    "cpu_ratio": "ratio",
    "startup_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "distribution.existence_s": "s",
    "distribution.existence_calls": "count",
    "distribution.proven_ratio": "ratio",
    "distribution.build_s": "s",
    "solver.iterate_s": "s",
    "solver.iterations": "count",
    "solver.iter_ms": "ms",
    "solver.hessian_s": "s",
    "solver.procov_s": "s",
    "asymptotics.influence_s": "s",
    "asymptotics.influence_ms_per_obs": "ms",
    "location.fit_s": "s",
    "cli.read_csv_s": "s",
    "cli.read_groups_s": "s",
    "cli.self_s": "s",
    "rho.validate_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.unaccounted_share": "ratio",
    "trace.dominant_share": "ratio",
    "fail_ratio": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny input sizes, for the smoke test")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's outputs as the default-seed reference values")
    return p.parse_args(argv)


def code_hash(root):
    """Digest of the package sources and the benchmark files."""
    h = hashlib.sha256()
    for base in (os.path.join(root, "src", "mscatter"), HERE):
        for dirpath, dirnames, files in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def check_counters(root, args, counters, digest):
    """Compare the counters with the previous run of the same code and seed."""
    path = os.path.join(root, WORK, "counters",
                        f"{args.workload}-{'tiny' if args.tiny else 'full'}"
                        f"-seed{args.seed}-trace{args.trace}.json")
    flags = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            prev = json.load(fh)
        if prev["code"] == digest and prev["counters"] != counters:
            flags.append(f"counters {counters} differ from the previous run {prev['counters']}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"code": digest, "counters": counters}, fh)
    return flags


def ratios(mine, base):
    """Program over baseline for each ABBA quad: the two samples of each
    side in a quad are summed, which cancels the advantage of running second."""
    return [(mine[k] + mine[k + 1]) / (base[k] + base[k + 1])
            for k in range(0, len(mine) - 1, 2)]


def report(args, res, metrics):
    """Human-readable lines printed before the result."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs attempted {res['attempted']}  failed {res['failed']}")
    if "baseline" in res:
        base = res["baseline"]
        for key, label in (("wall", "wall s"), ("cpu", "cpu s")):
            q1, q3 = quartiles(ratios(res[key], base[key]))
            print(f"  {label}: {len(res[key])} job runs per side, program {sum(res[key]):.4f} s, "
                  f"baseline {sum(base[key]):.4f} s; per-quad ratio q1 {q1:.4f} q3 {q3:.4f}")
        for side, vals in (("program", res["startup"]), ("baseline", base["startup"]),
                           ("ratio", ratios(res["startup"], base["startup"]))):
            q1, q3 = quartiles(vals)
            print(f"  startup {side:8s} median {statistics.median(vals):.4f}  "
                  f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(vals)}")
    else:
        q1, q3 = quartiles(res["wall"])
        print(f"  untraced wall s per pass: median {statistics.median(res['wall']):.4f}  "
              f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(res['wall'])}")
    print("  set-up samples: " + " ".join(f"{t:.4f}" for t in res["setup_reps"])
          + f"  (+ import {res['import_s']:.4f} s)")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  spans: {res['spans_file']}  traced passes {res['per_layer']['trace.passes']}")
    for line in res["problems"] + res["flags"]:
        print(f"  FAIL {line}")
    env = res["env"]
    print(f"  env: seed {env['seed']}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  nproc {env['nproc']}  load {env['load_before']} -> "
          f"{env['load_after']}  cpu {env['cpu']} of {env['affinity']}  pin {env['pin']}")
    for lib in env["blas"]:
        print(f"  blas: {lib}")


class Worker:
    """One ``worker.py`` process, driven a command at a time."""

    def __init__(self, workers, args, root, package, workdir, setup_reps, extra=()):
        env = dict(os.environ, PYTHONPATH=package, **PIN)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", workdir, "--package", package,
               "--setup-reps", str(setup_reps)]
        cmd += ["--tiny"] * args.tiny + list(extra)
        self.proc = subprocess.Popen(cmd, env=env, cwd=root, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        workers.append(self)  # registered before the set-up, so a timeout can stop it
        self.ready = self.read()

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def finish(self):
        res = self.ask("finish")
        self.proc.stdin.close()
        if self.proc.wait() != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return dict(self.ready, **res)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(args, root, workers):
    """Run the schedule for ``--seconds`` and return the program's record,
    with the baseline's samples under ``baseline`` for an untraced run."""
    tag = f"{args.workload}-{'tiny' if args.tiny else 'full'}"
    mine = Worker(workers, args, root, os.path.join(root, "src"),
                  os.path.join(root, WORK, tag), 1 if args.trace else SETUP_REPS,
                  ["--record-reference"] * args.record_reference)
    samples = {"program": {"wall": [], "cpu": [], "startup": []},
               "baseline": {"wall": [], "cpu": [], "startup": []}}
    if args.trace:
        t_start = time.perf_counter()
        while True:
            p = mine.ask("pass 0")
            samples["program"]["wall"].append(p["wall"])
            samples["program"]["cpu"].append(p["cpu"])
            mine.ask("pass 1")
            if time.perf_counter() - t_start >= args.seconds:
                break
        return dict(mine.finish(), **samples["program"])

    base = Worker(workers, args, root, BASELINE, os.path.join(root, WORK, tag + "-baseline"), 1)
    # The second of two neighbouring runs of a job is faster (most likely the
    # first has warmed the CPU caches with the shared libraries' code), so
    # every job runs in an ABBA quad: program, baseline, baseline, program.
    # Each cycle runs a quad of every job, then STARTUP_QUADS quads of fresh
    # starts.  Only whole cycles are run, so every job weighs the same in the
    # totals; a cycle starts while more than half a cycle of the time is left.
    abba = [("program", mine), ("baseline", base), ("baseline", base), ("program", mine)]
    t_start = t_cycle = time.perf_counter()
    cycle = 0.0
    while time.perf_counter() - t_start + cycle / 2 < args.seconds:
        for j in range(mine.ready["jobs"]):
            for side, w in abba:
                p = w.ask(f"job {j}")
                samples[side]["wall"].append(p["wall"])
                samples[side]["cpu"].append(p["cpu"])
        for _ in range(STARTUP_QUADS):
            for side, w in abba:
                samples[side]["startup"].append(w.ask("startup")["startup"])
        cycle, t_cycle = time.perf_counter() - t_cycle, time.perf_counter()
    res = mine.finish()
    res.update(samples["program"])
    res["baseline"] = dict(base.finish(), **samples["baseline"])
    if res["baseline"]["failed"]:
        raise RuntimeError("baseline jobs failed: " + "; ".join(res["baseline"]["problems"]))
    return res


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mscatter", "cli.py")):
        print("error: run from the root of an mscatter checkout; src/mscatter is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    # The workers, and the fresh starts they time, inherit this one CPU.  They
    # never run at once, and on a shared host two vCPUs can differ in speed
    # for minutes, which would show as a difference between the two sides.
    available = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(available)})
    # A SIGTERM unwinds through the clean-up below like an error.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    workers, timed_out = [], threading.Event()

    def kill_all():
        timed_out.set()
        for w in workers:
            w.proc.kill()

    timer = threading.Timer(WORKER_TIMEOUT, kill_all)
    timer.start()
    try:
        res = measure(args, root, workers)
    except (RuntimeError, OSError, ValueError) as exc:
        if timed_out.is_set():
            exc = f"the run did not finish within {WORKER_TIMEOUT:.0f} s"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        timer.cancel()
        for w in workers:
            w.stop()

    if args.trace:
        metrics = {k: res["per_layer"][k] for k in PER_LAYER}
    else:
        base = res["baseline"]
        metrics = {
            "wall_ratio": sum(res["wall"]) / sum(base["wall"]),
            "cpu_ratio": sum(res["cpu"]) / sum(base["cpu"]),
            "startup_ratio": statistics.median(ratios(res["startup"], base["startup"])),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": res["setup_s"],
        }
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    res["flags"] += check_counters(root, args, res["counters"], code_hash(root))
    res["env"].update(seed=args.seed, pin=PIN, nproc=os.cpu_count(),
                      affinity=len(available), cpu=min(available),
                      load_before=list(load_before), load_after=list(os.getloadavg()))
    correct = res["failed"] == 0 and not res["flags"]
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}

    results_dir = os.path.join(root, WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                           f"{'-tiny' if args.tiny else ''}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(res, result=result), fh, indent=1)
    report(args, res, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
