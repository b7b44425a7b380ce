"""Workload definitions: the seeded input files and the CLI jobs each runs.

Every dataset is drawn from a multivariate t with nu = 3 around a
Haar-rotated scatter whose spectrum is geometric with condition number 100;
the procov groups are scaled Wishart draws around such a scatter.  The
program only ever sees the CSV/JSON files written here.

Each workload stresses different layers (the ``dominant`` spans):

* obs-fit     large-n plain fits: rank-one atoms make ``check_existence``
              expensive, and the t and location fits run hundreds of solver
              iterations; no influence work at all.
* se-fit      fits with standard errors: per-observation Hessian solves in
              ``acov_scatter``/``location_influence`` dominate; existence
              and the solver loop are a small share (the bypass case for
              existence and solver-loop changes).
* dense-atoms the same layers used differently: existence as a BFS over
              unions of rank-two k-subset atoms, JSON parsing in
              ``read_groups``, and full-rank dense Wishart atoms that must
              stay on the dense path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

NU = 3.0
CONDITION = 100.0


@dataclass(frozen=True)
class Dataset:
    """One input file: ``mvt`` rows as CSV, or ``wishart`` groups as JSON."""

    name: str
    kind: str
    n: int  # rows, or groups for wishart
    q: int
    dof: int = 0


@dataclass(frozen=True)
class Workload:
    datasets: tuple
    jobs: tuple  # CLI argv lists; "@name" stands for the dataset file
    dominant: tuple  # span names whose self time should dominate the pass
    why: str


def _workloads(tiny: bool):
    def size(full, small):
        return small if tiny else full

    return {
        "obs-fit": Workload(
            datasets=(
                Dataset("wide", "mvt", size(8000, 300), size(10, 3)),
                Dataset("deep", "mvt", size(3000, 200), size(20, 4)),
            ),
            jobs=(
                ("scatter", "--estimator", "tyler", "--input", "@wide"),
                ("scatter", "--estimator", "gaussian", "--input", "@wide"),
                ("scatter", "--estimator", "t", "--nu", "3", "--input", "@deep"),
                ("locscatter", "--nu", "3", "--input", "@deep"),
            ),
            dominant=("distribution.existence", "solver.iterate"),
            why="large-n rank-one atoms load check_existence and the t/location fits "
            "load the solver loop; no influence work",
        ),
        "se-fit": Workload(
            datasets=(Dataset("obs", "mvt", size(500, 60), size(20, 4)),),
            jobs=(
                ("locscatter", "--nu", "3", "--se", "--input", "@obs"),
                ("influence", "--estimator", "tyler", "--input", "@obs"),
                ("influence", "--estimator", "t", "--nu", "3", "--input", "@obs"),
            ),
            dominant=("asymptotics.influence", "solver.hessian"),
            why="per-observation Hessian solves in the influence functions dominate; "
            "existence and the solver loop are small",
        ),
        "dense-atoms": Workload(
            datasets=(
                Dataset("triples", "mvt", size(10, 7), 4),
                Dataset("pairs", "mvt", size(200, 30), size(8, 3)),
                Dataset("groups", "wishart", size(600, 20), size(30, 4), size(40, 8)),
            ),
            jobs=(
                ("influence", "--k", "3", "--input", "@triples"),
                ("influence", "--k", "2", "--cap", "2000", "--input", "@pairs"),
                ("procov", "--groups", "@groups"),
            ),
            dominant=("distribution.existence", "cli.read_groups"),
            why="existence as a BFS over rank-two atom unions, JSON parsing of Wishart "
            "groups, and full-rank dense atoms",
        ),
    }


WORKLOADS = _workloads(tiny=False)
TINY_WORKLOADS = _workloads(tiny=True)


def scatter_matrix(q: int, stream, samplers) -> np.ndarray:
    """Haar-rotated scatter with a geometric spectrum of condition CONDITION."""
    u = samplers.haar_orthogonal(q, stream)
    lam = CONDITION ** (-np.arange(q) / max(q - 1, 1))
    return (u * lam) @ u.T


def write_inputs(workload: Workload, seed: int, directory: str) -> dict:
    """Draw every dataset of ``workload`` from ``seed`` and write it into
    ``directory``.

    Returns two maps keyed by dataset name: the file paths, and the data as
    written (an (n, q) matrix, or a (dofs, scatters) pair for groups).
    """
    from mscatter import samplers

    paths, data = {}, {}
    for offset, ds in enumerate(workload.datasets):
        stream = samplers.SeededStream(seed).split(offset)
        sigma = scatter_matrix(ds.q, stream, samplers)
        if ds.kind == "mvt":
            x = samplers.mvt(np.zeros(ds.q), sigma, NU, ds.n, stream)
            path = os.path.join(directory, f"{ds.name}.csv")
            np.savetxt(path, x, delimiter=",", fmt="%.17g")
            data[ds.name] = x
        else:
            scales = np.exp(stream.rng.uniform(-1.0, 1.0, size=ds.n))
            mats = np.stack([c * samplers.wishart(sigma, ds.dof, stream).mat for c in scales])
            path = os.path.join(directory, f"{ds.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([{"dof": ds.dof, "scatter": m.tolist()} for m in mats], fh)
            data[ds.name] = (np.full(ds.n, float(ds.dof)), mats)
        paths[ds.name] = path
    return paths, data


def job_argv(job: tuple, paths: dict) -> list:
    """Substitute dataset paths for the ``@name`` placeholders of a job."""
    return [paths[a[1:]] if a.startswith("@") else a for a in job]


def job_name(job: tuple) -> str:
    """Short stable label of a job, used for reference values and spans."""
    return " ".join(a for a in job if a not in ("--input", "--groups"))
