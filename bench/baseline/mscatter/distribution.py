"""Weighted finite distributions of PSD matrices and their diagnostics.

The scatter functionals all consume a distribution Q over positive
semidefinite matrices.  This module builds the standard instances (outer
products of observations, sample covariances of k-subsets, Wishart-group
mixtures), applies congruence transforms, and decides the subspace-mass
existence conditions that govern whether a unique minimizer exists.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError
from .rho import CASE0, RhoFunction
from .symmat import PsdAtom, as_array, clip_psd_dust

# Eigenvalues below this relative size do not count toward an atom's column
# space when enumerating candidate subspaces.
_RANK_RTOL = 1e-9

# Containment slack for "column space lies inside subspace" tests.
_CONTAIN_TOL = 1e-8


@dataclass(frozen=True)
class SourceInfo:
    """Provenance of a distribution, used by sufficient-condition fallbacks."""

    kind: str  # "observations" | "kstat" | "wishart" | "generic"
    n: Optional[int] = None
    k: Optional[int] = None
    m_plus: Optional[int] = None


@dataclass(frozen=True)
class WishartGroup:
    """One group of the proportional-covariance problem: a scatter matrix
    together with its degrees of freedom."""

    scatter: PsdAtom
    dof: int

    def __post_init__(self):
        if self.dof < 1:
            raise InvalidInputError(f"degrees of freedom must be >= 1, got {self.dof}")
        if not isinstance(self.scatter, PsdAtom):
            object.__setattr__(self, "scatter", PsdAtom(self.scatter))


class MatrixDistribution:
    """A weighted finite collection of PSD atoms sharing one dimension.

    Atoms are stored stacked as an (m, q, q) array for vectorized criterion
    and fixed-point evaluations; ``atom(i)`` recovers a single ``PsdAtom``.
    Weights are positive and sum to one.
    """

    __slots__ = ("dim", "atoms", "weights", "traces", "case0_ready", "source")

    def __init__(self, atoms, weights=None, *, clip: bool = True, source: Optional[SourceInfo] = None):
        if isinstance(atoms, (list, tuple)):
            mats = [as_array(a) for a in atoms]
            if not mats:
                raise InvalidInputError("a matrix distribution needs at least one atom")
            arr = np.stack(mats)
        else:
            arr = np.asarray(atoms, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise InvalidInputError(f"atoms must be an (m, q, q) stack, got {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidInputError("a matrix distribution needs at least one atom")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("atoms contain non-finite entries")
        arr = (arr + arr.transpose(0, 2, 1)) / 2.0
        if clip:
            arr = np.stack([clip_psd_dust(a) for a in arr])

        m = arr.shape[0]
        if weights is None:
            w = np.full(m, 1.0 / m)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (m,):
                raise InvalidInputError(f"weights must have shape ({m},), got {w.shape}")
            if np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise InvalidInputError("weights must be positive and finite")
            w = w / w.sum()

        arr.flags.writeable = False
        w.flags.writeable = False
        self.atoms = arr
        self.weights = w
        self.dim = arr.shape[1]
        self.traces = np.einsum("mii->m", arr)
        self.traces.flags.writeable = False
        self.case0_ready = bool(np.all(self.traces > 0.0))
        self.source = source or SourceInfo(kind="generic")

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def atom(self, i: int) -> PsdAtom:
        return PsdAtom(self.atoms[i], _trusted=True)

    def mean_atom(self) -> np.ndarray:
        """Weighted mean of the atoms."""
        return np.einsum("m,mij->ij", self.weights, self.atoms)

    def __repr__(self):
        return (
            f"MatrixDistribution(dim={self.dim}, n_atoms={self.n_atoms}, "
            f"source={self.source.kind})"
        )


# -- constructors --------------------------------------------------------------


def from_observations(x, center=None) -> MatrixDistribution:
    """Distribution of outer products x_i x_i^T with equal weights.

    Parameters
    ----------
    x : (n, q) array-like
        Observations in rows.
    center : (q,) array-like, optional
        Subtracted from every row first.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidInputError(f"observations must form an (n, q) matrix, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("observations contain non-finite entries")
    if center is not None:
        center = np.asarray(center, dtype=float)
        if center.shape != (x.shape[1],):
            raise DimensionMismatchError(
                f"center has shape {center.shape}, expected ({x.shape[1]},)"
            )
        x = x - center
    atoms = np.einsum("ni,nj->nij", x, x)
    return MatrixDistribution(
        atoms, clip=False, source=SourceInfo(kind="observations", n=x.shape[0], k=1)
    )


def sample_covariance(points) -> PsdAtom:
    """Sample covariance matrix of k >= 2 points (denominator k - 1).

    Its column space equals the span of the pairwise differences of the
    points, so identical points give the zero atom.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise InvalidInputError("sample covariance needs at least two points")
    centered = pts - pts.mean(axis=0)
    s = centered.T @ centered / (pts.shape[0] - 1)
    return PsdAtom(s)


def _subset_atoms(x: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Stacked sample covariances of the rows of x indexed by each subset."""
    k = subsets.shape[1]
    pts = x[subsets]  # (m, k, q)
    centered = pts - pts.mean(axis=1, keepdims=True)
    return np.einsum("mki,mkj->mij", centered, centered) / (k - 1)


def _sample_distinct_subsets(n: int, k: int, cap: int, seed: int) -> np.ndarray:
    """Draw ``cap`` distinct k-subsets of range(n) uniformly, reproducibly."""
    rng = np.random.Generator(np.random.PCG64(seed))
    total = math.comb(n, k)
    if 2 * cap >= total:
        # Rejection sampling degenerates near full coverage; enumerate and
        # take a seed-determined subset instead.
        everything = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
        keep = rng.permutation(total)[:cap]
        return everything[np.sort(keep)]
    chosen = np.empty((0, k), dtype=np.int64)
    while chosen.shape[0] < cap:
        batch = rng.integers(0, n, size=(2 * (cap - chosen.shape[0]) + 16, k))
        batch.sort(axis=1)
        ok = np.all(np.diff(batch, axis=1) > 0, axis=1)
        chosen = np.unique(np.vstack([chosen, batch[ok]]), axis=0)
    # Deterministic trim: keep a random but seed-determined selection of cap rows.
    keep = rng.permutation(chosen.shape[0])[:cap]
    return chosen[np.sort(keep)]


def build_kstat(x, k: int, cap: int = 200_000, seed: int = 0) -> MatrixDistribution:
    """Order-k symmetrized distribution: sample covariances of k-subsets.

    All C(n, k) subsets are enumerated when that count does not exceed
    ``cap``; otherwise ``cap`` subsets are drawn uniformly without
    replacement using ``seed``, giving an incomplete U-statistic.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError(f"observations must form an (n, q) matrix, got {x.shape}")
    n = x.shape[0]
    if not 2 <= k <= n:
        raise InvalidInputError(f"symmetrization order k must satisfy 2 <= k <= n, got k={k}, n={n}")
    if cap < 1:
        raise InvalidInputError("cap must be positive")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("observations contain non-finite entries")

    total = math.comb(n, k)
    if total <= cap:
        subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
    else:
        subsets = _sample_distinct_subsets(n, k, cap, seed)
    atoms = _subset_atoms(x, subsets)
    return MatrixDistribution(
        atoms, clip=False, source=SourceInfo(kind="kstat", n=n, k=k)
    )


def from_wishart_groups(groups) -> MatrixDistribution:
    """Mixture of group scatter matrices weighted by degrees of freedom."""
    groups = list(groups)
    if not groups:
        raise InvalidInputError("at least one Wishart group is required")
    for g in groups:
        if not isinstance(g, WishartGroup):
            raise InvalidInputError("groups must be WishartGroup instances")
    dims = {g.scatter.dim for g in groups}
    if len(dims) != 1:
        raise DimensionMismatchError(f"groups have mixed dimensions {sorted(dims)}")
    m_plus = sum(g.dof for g in groups)
    weights = np.array([g.dof / m_plus for g in groups])
    atoms = np.stack([g.scatter.mat for g in groups])
    return MatrixDistribution(
        atoms, weights, clip=False, source=SourceInfo(kind="wishart", m_plus=m_plus)
    )


def transform(q: MatrixDistribution, b, direction: str = "forward") -> MatrixDistribution:
    """Congruence transform of every atom: B M B^T or B^{-1} M B^{-T}.

    Weights and provenance are unchanged.  B must be nonsingular (smallest
    singular value above 1e-12 of the largest).
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (q.dim, q.dim):
        raise DimensionMismatchError(f"B must be {q.dim}x{q.dim}, got {b.shape}")
    sv = np.linalg.svd(b, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise InvalidInputError("transform matrix is numerically singular")
    if direction == "forward":
        t = b
    elif direction == "inverse":
        t = np.linalg.inv(b)
    else:
        raise InvalidInputError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    atoms = np.einsum("ij,mjk,lk->mil", t, q.atoms, t)
    return MatrixDistribution(atoms, q.weights, clip=False, source=q.source)


# -- existence diagnostics ------------------------------------------------------


@dataclass(frozen=True)
class ExistenceWitness:
    """A subspace carrying at least its critical mass."""

    basis: np.ndarray  # (q, d) orthonormal columns; d = 0 for the zero space
    mass: float
    threshold: float

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class ExistenceReport:
    verdict: str  # "satisfied" | "violated" | "undecided"
    witnesses: tuple
    method: str  # "exact_enumeration" | "sufficient_condition" | "budget_exceeded"

    def __repr__(self):
        return (
            f"ExistenceReport({self.verdict}, method={self.method}, "
            f"witnesses={len(self.witnesses)})"
        )


def _atom_groups(q: MatrixDistribution):
    """Distinct atom column spaces with aggregated masses.

    Returns (bases, masses, zero_mass, full_rank_present) where ``bases`` is a
    list of (q, d) orthonormal bases with 1 <= d < q.  Atoms of full column
    rank cannot lie inside any proper subspace and are dropped (their mass
    never counts); zero atoms lie inside every subspace.
    """
    dim = q.dim
    lam, vec = np.linalg.eigh(q.atoms)  # ascending eigenvalues
    lam_max = np.maximum(lam[:, -1], 0.0)
    zero_mass = 0.0
    full_present = False
    rank_one_dirs = []
    rank_one_w = []
    general = {}  # projector key -> [basis, mass]

    for i in range(q.n_atoms):
        tolerance = _RANK_RTOL * max(lam_max[i], 1e-300)
        keep = lam[i] > tolerance
        r = int(keep.sum())
        if r == 0:
            zero_mass += q.weights[i]
            continue
        if r == dim:
            full_present = True
            continue
        basis = vec[i][:, keep]
        if r == 1:
            u = basis[:, 0]
            j = int(np.argmax(np.abs(u)))
            if u[j] < 0:
                u = -u
            rank_one_dirs.append(u)
            rank_one_w.append(q.weights[i])
        else:
            proj = basis @ basis.T
            key = np.round(proj, 9).tobytes()
            if key in general:
                general[key][1] += q.weights[i]
            else:
                general[key] = [basis, q.weights[i]]

    bases = []
    masses = []
    if rank_one_dirs:
        dirs = np.round(np.array(rank_one_dirs), 12)
        uniq, inverse = np.unique(dirs, axis=0, return_inverse=True)
        w = np.zeros(uniq.shape[0])
        np.add.at(w, inverse, np.array(rank_one_w))
        norms = np.linalg.norm(uniq, axis=1)
        for row, wt, nrm in zip(uniq, w, norms):
            bases.append((row / nrm)[:, None])
            masses.append(float(wt))
    for basis, wt in general.values():
        bases.append(basis)
        masses.append(float(wt))
    return bases, masses, float(zero_mass), full_present


def _contains(big: np.ndarray, small: np.ndarray) -> bool:
    resid = small - big @ (big.T @ small)
    return bool(np.linalg.norm(resid) <= _CONTAIN_TOL * math.sqrt(small.shape[1]))


def _union_basis(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    stacked = np.hstack([a, b])
    u, sv, _ = np.linalg.svd(stacked, full_matrices=False)
    r = int(np.sum(sv > 1e-10 * sv[0]))
    return u[:, :r]


def _threshold(case_tag: str, psi_inf: float, dim_v: int, q: int) -> float:
    if case_tag == CASE0:
        return dim_v / q
    if math.isinf(psi_inf):
        return 1.0
    return (psi_inf - q + dim_v) / psi_inf


def check_existence(q: MatrixDistribution, f: RhoFunction, budget: int = 10_000) -> ExistenceReport:
    """Decide the subspace-mass conditions for a unique minimizer.

    A proper subspace V is critical when the mass of atoms whose column
    space lies inside V reaches dim(V)/q (Case 0) or
    (psi(inf) - q + dim(V))/psi(inf) (Case 1, threshold 1 when psi(inf) is
    infinite).  For finite Q it suffices to enumerate subspaces spanned by
    unions of atom column spaces; ``budget`` caps how many candidates are
    examined before falling back to sample-size sufficient conditions.
    """
    if budget < 1:
        raise InvalidInputError("budget must be positive")
    if f.dim is not None and f.dim != q.dim:
        raise DimensionMismatchError(
            f"loss is for dimension {f.dim}, distribution has dimension {q.dim}"
        )
    dim = q.dim
    psi_inf = f.psi_infinity
    case = f.case_tag
    witnesses = []

    bases, masses, zero_mass, _ = _atom_groups(q)

    # Zero space first: under Case 0 any mass at the zero matrix is fatal,
    # under Case 1 it faces the dim(V) = 0 threshold.
    if zero_mass > 0:
        if case == CASE0:
            return ExistenceReport(
                "violated",
                (ExistenceWitness(np.zeros((dim, 0)), zero_mass, 0.0),),
                "exact_enumeration",
            )
        thr0 = _threshold(case, psi_inf, 0, dim)
        if zero_mass >= thr0 - 1e-12:
            witnesses.append(ExistenceWitness(np.zeros((dim, 0)), zero_mass, thr0))

    # Unbounded psi: the only way to reach threshold 1 is to carry all mass,
    # so the single candidate is the span of every atom column space.  Atoms
    # of full column rank were dropped from the groups, so their mass is
    # missing from the sum and correctly prevents a violation.
    if case != CASE0 and math.isinf(psi_inf):
        if witnesses:
            return ExistenceReport("violated", tuple(witnesses), "exact_enumeration")
        span = np.zeros((dim, 0))
        for b in bases:
            span = _union_basis(span, b) if span.shape[1] else b
        total_contained = zero_mass + sum(masses)
        if span.shape[1] < dim and total_contained >= 1.0 - 1e-12:
            w = ExistenceWitness(span, total_contained, 1.0)
            return ExistenceReport("violated", (w,), "exact_enumeration")
        return ExistenceReport("satisfied", (), "exact_enumeration")

    examined = 0
    exceeded = False

    if bases:
        all_rank_one = all(b.shape[1] == 1 for b in bases)
        if all_rank_one:
            # Lines were deduplicated, so each line's mass is its own group's;
            # the depth-1 sweep is a vectorized compare.
            thr1 = _threshold(case, psi_inf, 1, dim)
            marr = zero_mass + np.asarray(masses)
            for idx in np.nonzero(marr >= thr1 - 1e-12)[0]:
                witnesses.append(ExistenceWitness(bases[idx], float(marr[idx]), thr1))
            examined = len(bases)
            exceeded = examined > budget
            if dim > 2 and not exceeded:
                exceeded = not _bfs_unions(
                    bases, masses, zero_mass, case, psi_inf, dim,
                    budget, examined, witnesses, seed_pairs=True,
                )
        else:
            exceeded = not _bfs_unions(
                bases, masses, zero_mass, case, psi_inf, dim,
                budget, 0, witnesses, seed_pairs=False,
            )

    if witnesses:
        return ExistenceReport("violated", tuple(witnesses), "exact_enumeration")
    if not exceeded:
        return ExistenceReport("satisfied", (), "exact_enumeration")

    src = q.source
    if src.kind == "observations" and src.n is not None:
        need = dim + 1 if case == CASE0 else dim
        if src.n >= need:
            return ExistenceReport("satisfied", (), "sufficient_condition")
    elif src.kind == "kstat" and src.n is not None:
        if src.n >= dim + 1:
            return ExistenceReport("satisfied", (), "sufficient_condition")
    elif src.kind == "wishart" and src.m_plus is not None and case == CASE0:
        if src.m_plus >= dim + 1:
            return ExistenceReport("satisfied", (), "sufficient_condition")
    return ExistenceReport("undecided", (), "budget_exceeded")


def _append_direction(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(U) + span(v) for a unit vector v not inside
    span(U); one re-orthogonalization pass keeps the basis tight."""
    w = v - u @ (u.T @ v)
    w /= np.linalg.norm(w)
    w -= u @ (u.T @ w)
    w /= np.linalg.norm(w)
    return np.hstack([u, w[:, None]])


def _bfs_unions(bases, masses, zero_mass, case, psi_inf, dim, budget,
                examined, witnesses, seed_pairs):
    """Breadth-first closure of subspace unions; returns False on budget blowout.

    When ``seed_pairs`` is true the singleton subspaces were already checked
    and the queue starts from pairwise unions.  Rank-one groups use a
    vectorized containment sweep and Gram-Schmidt appends; groups of higher
    rank fall back to SVD unions.
    """
    n_groups = len(bases)
    masses_arr = np.asarray(masses)
    rank_one = all(b.shape[1] == 1 for b in bases)
    dirs = np.concatenate(bases, axis=1).T if rank_one else None  # (G, q)
    visited = set()
    queue = deque()

    def key_of(basis):
        return np.round(basis @ basis.T, 9).tobytes()

    def push(u):
        if u.shape[1] >= dim:
            return
        k = key_of(u)
        if k not in visited:
            visited.add(k)
            queue.append(u)

    def union(u, g):
        if rank_one:
            return _append_direction(u, dirs[g])
        return _union_basis(u, bases[g])

    if seed_pairs:
        n_pairs = n_groups * (n_groups - 1) // 2
        if examined + n_pairs > budget:
            return False
        for i in range(n_groups):
            for j in range(i + 1, n_groups):
                push(union(bases[i], j))
    else:
        for b in bases:
            push(b)

    count = examined
    while queue:
        count += 1
        if count > budget:
            return False
        u = queue.popleft()
        d = u.shape[1]
        if rank_one:
            resid = dirs - (dirs @ u) @ u.T
            inside = np.linalg.norm(resid, axis=1) <= _CONTAIN_TOL
        else:
            inside = np.array([_contains(u, bases[g]) for g in range(n_groups)])
        mass = zero_mass + float(masses_arr[inside].sum())
        thr = _threshold(case, psi_inf, d, dim)
        if mass >= thr - 1e-12:
            witnesses.append(ExistenceWitness(u, float(mass), thr))
        if d + 1 < dim or not rank_one:
            for g in np.nonzero(~inside)[0]:
                push(union(u, g))
    return True
