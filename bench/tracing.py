"""In-memory spans around the package's public call sites.

The benchmark wraps functions at the module attributes where the package
looks them up (``from x import f`` binds ``f`` in the importing module, so
each call site is patched separately).  A span records its name, start, end,
parent span and job id; self time is the span's duration minus the time its
direct children cover.  Nothing inside the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

ROOT = "cli.run"

# (module, attribute, span name).  ``symmat`` is only called from inside the
# other layers and ``samplers`` only generates inputs, so neither is wrapped.
CALL_SITES = (
    ("mscatter.cli", "read_csv", "cli.read_csv"),
    ("mscatter.cli", "read_groups", "cli.read_groups"),
    ("mscatter.cli", "from_observations", "distribution.build"),
    ("mscatter.cli", "build_kstat", "distribution.build"),
    ("mscatter.location", "from_observations", "distribution.build"),
    ("mscatter.asymptotics", "from_observations", "distribution.build"),
    ("mscatter.asymptotics", "build_kstat", "distribution.build"),
    ("mscatter.solver", "from_wishart_groups", "distribution.build"),
    ("mscatter.solver", "check_existence", "distribution.existence"),
    ("mscatter.solver", "validate", "rho.validate"),
    ("mscatter.cli", "fixed_point_solve", "solver.iterate"),
    ("mscatter.location", "fixed_point_solve", "solver.iterate"),
    ("mscatter.solver", "fixed_point_solve", "solver.iterate"),
    ("mscatter.cli", "estimate_location_scatter", "location.fit"),
    ("mscatter.cli", "solve_procov", "solver.procov"),
    ("mscatter.asymptotics", "hessian", "solver.hessian"),
    ("mscatter.cli", "acov_scatter", "asymptotics.influence"),
    ("mscatter.cli", "location_influence", "asymptotics.influence"),
)

SPAN_NAMES = tuple(dict.fromkeys([ROOT] + [name for _, _, name in CALL_SITES]))


class Tracer:
    """Collects the spans of one pass while installed; ``job`` tags the spans
    that follow."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.job = None
        self._stack = []
        self._saved = []

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        for module, attr, name in CALL_SITES:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.span(name, original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def write_spans(path, passes):
    """Write the spans of each traced pass as JSON lines, one object per span;
    ``parent`` indexes the spans of the same pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for name, start, end, parent, job in spans:
                fh.write(json.dumps({"pass": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def read_spans(path):
    """Inverse of :func:`write_spans`: the list of span lists, one per pass."""
    passes = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            passes.setdefault(s["pass"], []).append(
                [s["name"], s["start"], s["end"], s["parent"], s["job"]])
    return [passes[k] for k in sorted(passes)]


def self_times(spans):
    """Per span name: (total self seconds, number of spans)."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: [0.0, 0])
    for idx, (name, start, end, _, _) in enumerate(spans):
        out[name][0] += (end - start) - child_time[idx]
        out[name][1] += 1
    return {k: tuple(v) for k, v in out.items()}


def root_time(spans):
    """Seconds covered by spans without a parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def nesting_errors(spans):
    """Spans that do not lie inside their parent or change job id under it."""
    bad = []
    for idx, (name, start, end, parent, job) in enumerate(spans):
        if end < start:
            bad.append(f"span {idx} ({name}) ends before it starts")
        if parent < 0:
            continue
        if parent >= idx:
            bad.append(f"span {idx} ({name}) has a parent recorded after it")
            continue
        p = spans[parent]
        if not (p[1] <= start and end <= p[2]):
            bad.append(f"span {idx} ({name}) is not inside its parent {parent} ({p[0]})")
        if p[4] != job:
            bad.append(f"span {idx} ({name}) has job {job}, its parent {p[4]}")
    return bad
