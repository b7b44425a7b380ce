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

import numpy as np

from .errors import DimensionMismatchError, DomainError, InvalidInputError, RangeError
from .rho import CASE0, RhoFunction
from .symmat import PsdAtom, as_array, clip_psd_dust, helmert, unscreened_blocks

# Eigenvalues below this relative size do not count toward an atom's column
# space when enumerating candidate subspaces.
_RANK_RTOL = 1e-9

# Containment slack for "column space lies inside subspace" tests.
_CONTAIN_TOL = 1e-8

# Largest condition number of a fitted scatter relative to the mean atom: the
# solver stops as diverged beyond it, and the frame reads the rank of the mean
# atom down to its reciprocal, so both draw the line in one place.
_COND_LIMIT = 1e12


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

    Observations, k-subsets and their congruence transforms keep an (m, r, q)
    stack of factor rows with M_i = Y_i^T Y_i; Wishart groups and atoms given
    to this constructor keep the dense (m, q, q) stack.  ``traces_under`` and
    ``weighted_sum`` evaluate either form, ``atoms`` is the read-only dense
    stack (built from the factors on first use), ``atom_blocks`` yields it a
    block at a time without keeping it, and ``atom(i)`` recovers a single
    ``PsdAtom``.  Weights are positive and sum to one.

    Dense atoms are clipped of eigenvalue dust by :func:`clip_psd_dust`, which
    decomposes only the blocks that its Cholesky screen cannot prove free of
    dust.  For the existence check, the rank of a rank-one factor is read off
    its trace, other factors get a batched SVD, and a dense atom that passes
    a Cholesky screen is full rank without being decomposed (see
    ``_atom_groups``).
    """

    __slots__ = ("dim", "weights", "traces", "case0_ready", "_factors", "_atoms")

    def __init__(self, atoms, weights=None, *, clip: bool = True):
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
            arr = clip_psd_dust(arr)
        self._factors, self._atoms = None, arr
        self._finish(np.einsum("mii->m", arr), weights)

    @classmethod
    def _from_factors(cls, factors, weights=None):
        """Distribution of the atoms Y_i^T Y_i of an (m, r, q) factor stack."""
        self = cls.__new__(cls)
        self._factors, self._atoms = np.array(factors, dtype=float), None
        self._finish(np.einsum("mri,mri->m", self._factors, self._factors), weights)
        return self

    def _finish(self, traces, weights):
        m = traces.shape[0]
        normal = (traces == 0.0) | (np.abs(traces) >= np.finfo(float).tiny)
        if not np.all(np.isfinite(traces) & normal):
            raise RangeError("atom traces overflow or underflow at this scale; rescale the data")
        if weights is None:
            w = np.full(m, 1.0 / m)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (m,):
                raise InvalidInputError(f"weights must have shape ({m},), got {w.shape}")
            if np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise InvalidInputError("weights must be positive and finite")
            w = w / w.sum()
        for a in (w, traces, self._factors, self._atoms):
            if a is not None:
                a.flags.writeable = False
        self.weights, self.traces = w, traces
        self.dim = (self._atoms if self._factors is None else self._factors).shape[-1]
        self.case0_ready = bool(np.all(traces > 0.0))

    @property
    def atoms(self) -> np.ndarray:
        """The read-only (m, q, q) stack of atoms."""
        if self._atoms is None:
            self._atoms = np.einsum("mri,mrj->mij", self._factors, self._factors)
            self._atoms.flags.writeable = False
        return self._atoms

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    def atom_blocks(self, size: int):
        """(start, dense atoms) of consecutive blocks of at most ``size``."""
        for lo in range(0, self.n_atoms, size):
            if self._atoms is not None:
                yield lo, self._atoms[lo:lo + size]
            else:
                y = self._factors[lo:lo + size]
                yield lo, np.einsum("mri,mrj->mij", y, y)

    def traces_under(self, a: np.ndarray) -> np.ndarray:
        """t_i = tr(A M_i) for every atom and a symmetric (q, q) matrix A."""
        if self._factors is None:
            return self._atoms.reshape(self.n_atoms, -1) @ a.ravel()
        y = self._factors.reshape(-1, self.dim)
        return np.einsum("ni,ni->n", y @ a, y).reshape(self.n_atoms, -1).sum(axis=1)

    def weighted_sum(self, c) -> np.ndarray:
        """sum_i c_i M_i for one coefficient per atom."""
        if self._factors is None:
            return (c @ self._atoms.reshape(self.n_atoms, -1)).reshape(self.dim, self.dim)
        y = self._factors.reshape(-1, self.dim)
        return y.T @ (np.repeat(c, self._factors.shape[1])[:, None] * y)

    def atom(self, i: int) -> PsdAtom:
        return PsdAtom(self.atoms[i], _trusted=True)

    def mean_atom(self) -> np.ndarray:
        """Weighted mean of the atoms."""
        return self.weighted_sum(self.weights)

    def __repr__(self):
        return f"MatrixDistribution(dim={self.dim}, n_atoms={self.n_atoms})"


# -- constructors --------------------------------------------------------------


def _observations(x) -> np.ndarray:
    """``x`` as a float array after checking it is a finite (n, q) matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidInputError(f"observations must form an (n, q) matrix, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("observations contain non-finite entries")
    return x


def from_observations(x, center=None) -> MatrixDistribution:
    """Distribution of outer products x_i x_i^T with equal weights.

    Parameters
    ----------
    x : (n, q) array-like
        Observations in rows.
    center : (q,) array-like, optional
        Subtracted from every row first.
    """
    x = _observations(x)
    if center is not None:
        center = np.asarray(center, dtype=float)
        if center.shape != (x.shape[1],):
            raise DimensionMismatchError(
                f"center has shape {center.shape}, expected ({x.shape[1]},)"
            )
        x = x - center
    return MatrixDistribution._from_factors(x[:, None, :])


def sample_covariance(points) -> PsdAtom:
    """Sample covariance matrix of k >= 2 points (denominator k - 1).

    Its column space equals the span of the pairwise differences of the
    points, so identical points give the zero atom.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise InvalidInputError("sample covariance needs at least two points")
    return PsdAtom(_subset_covariances(pts[None]).atoms[0])


def _subset_covariances(pts: np.ndarray) -> MatrixDistribution:
    """Equal-weight sample covariances of the (k, q) point sets of an (m, k, q)
    stack, each stored as its k-1 Helmert contrasts scaled by 1/sqrt(k-1).
    The contrasts act on differences from the first point, so coincident
    points give exactly zero factor rows."""
    k = pts.shape[1]
    factors = helmert(k)[:, 1:] @ (pts[:, 1:] - pts[:, :1]) / math.sqrt(k - 1)
    return MatrixDistribution._from_factors(factors)


def _subsets(n: int, k: int, cap: int, seed: int) -> np.ndarray:
    """k-subsets of range(n) as sorted index rows: all C(n, k) of them in
    lexicographic order when there are at most ``cap``, otherwise ``cap``
    distinct ones drawn uniformly and reproducibly from ``seed``."""
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    total = math.comb(n, k)
    if total <= cap:
        return np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
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
    x = _observations(x)
    n = x.shape[0]
    if not 2 <= k <= n:
        raise InvalidInputError(f"symmetrization order k must satisfy 2 <= k <= n, got k={k}, n={n}")
    if cap < 1:
        raise InvalidInputError("cap must be positive")

    subsets = _subsets(n, k, cap, seed)
    return _subset_covariances(x[subsets])


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
    weights = np.array([g.dof for g in groups], dtype=float)
    atoms = np.stack([g.scatter.mat for g in groups])
    return MatrixDistribution(atoms, weights, clip=False)


def transform(q: MatrixDistribution, b, direction: str = "forward") -> MatrixDistribution:
    """Congruence transform of every atom: B M B^T or B^{-1} M B^{-T}.

    Weights are unchanged.  B must be nonsingular (smallest
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
    return _congruence(q, t)


def _congruence(q: MatrixDistribution, t: np.ndarray) -> MatrixDistribution:
    """Every atom M replaced by T M T^T, with T taken as given."""
    if q._factors is not None:
        return MatrixDistribution._from_factors(q._factors @ t.T, q.weights)
    return MatrixDistribution(t @ q.atoms @ t.T, q.weights, clip=False)


def _frame(q: MatrixDistribution):
    """The frame of Q, in which its mean atom A (the Gaussian fit) is I.

    The rank of A is judged without units, on R = D^-1/2 A D^-1/2 with
    D = diag(A), down to 1/_COND_LIMIT of its largest eigenvalue.  Returns
    (L, L^-1) with A = L L^T, L = D^1/2 chol(R), or (None, an orthonormal
    basis of the span of A) when A is singular."""
    a = q.mean_atom()
    d = np.sqrt(np.diag(a))
    d[d == 0.0] = 1.0  # a zero row of A stays a zero row of R
    r = a / np.outer(d, d)
    lam, vec = np.linalg.eigh(r)
    keep = lam > lam[-1] / _COND_LIMIT
    if not keep.all():
        return None, np.linalg.qr(d[:, None] * vec[:, keep])[0]
    c = np.linalg.cholesky(r)
    return d[:, None] * c, np.linalg.inv(c) / d


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
    # "exact_enumeration" | "sufficient_condition" (certified at a fit's point
    # by its Hessian) | "witness" (a failed fit's span, recounted) | "budget_exceeded"
    method: str

    def __repr__(self):
        return (
            f"ExistenceReport({self.verdict}, method={self.method}, "
            f"witnesses={len(self.witnesses)})"
        )


def _atom_groups(q: MatrixDistribution):
    """Distinct atom column spaces with aggregated masses.

    Returns (bases, masses) where ``bases`` is a list of (q, d)
    orthonormal bases with 1 <= d < q: the deduplicated lines first, then
    the higher-rank spaces in order of first appearance.  Atoms of full
    column rank cannot lie inside any proper subspace and are dropped (their
    mass never counts); zero atoms lie inside every subspace and are
    counted by ``_zero_mass``.  The spectra come from :func:`_spectra`:
    rank-one factors need no decomposition, and a dense stack is decomposed
    only where a Cholesky screen cannot prove its atoms full rank.
    """
    dim, w = q.dim, q.weights
    idx, lam, vec = _spectra(q)
    keep = lam > _RANK_RTOL * np.maximum(lam.max(axis=1), 1e-300)[:, None]
    rank = keep.sum(axis=1)
    bases, masses = [], []

    lines = np.nonzero((rank == 1) & (rank < dim))[0]
    if lines.size:
        # Sign each direction against a fixed generic vector (no tie-prone
        # largest entry); lines whose directions agree to the 9 digits that
        # also key the higher-rank spaces merge, keeping the first direction.
        u = vec[lines, :, keep[lines].argmax(axis=1)]
        u *= np.where(u @ np.sin(np.arange(1.0, dim + 1.0)) < 0, -1.0, 1.0)[:, None]
        _, first, inverse = np.unique(np.round(u, 9), axis=0, return_index=True,
                                      return_inverse=True)
        bases += list(u[first][:, :, None])
        masses += np.bincount(inverse.ravel(), w[idx[lines]], first.size).tolist()

    spaces = np.nonzero((rank >= 2) & (rank < dim))[0]
    if spaces.size:
        kept = vec[spaces] * keep[spaces][:, None, :]
        keys = np.round(kept @ np.swapaxes(kept, 1, 2), 9).reshape(spaces.size, -1)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        mass = np.bincount(inverse.ravel(), w[idx[spaces]])
        for g in np.argsort(first):
            i = spaces[first[g]]
            bases.append(vec[i][:, keep[i]])
            masses.append(float(mass[g]))
    return bases, np.asarray(masses)


def _spectra(q: MatrixDistribution):
    """(indices, eigenvalues, eigenvectors as columns) of the atoms that may
    lie in a proper subspace.  A rank-one factor y has the eigenvalue
    tr = |y|^2 and the direction y / |y| (zero when tr is); other factor
    stacks get one batched SVD.  Of a dense stack only the blocks in which
    some M fails the screen M - 2 _RANK_RTOL tr(M) I = L L^T get ``eigh``: a
    passing M has lambda_min > 2 _RANK_RTOL lambda_max, full rank under the
    rank cut by a margin far above rounding."""
    if q._factors is not None and q._factors.shape[1] == 1:
        norm = np.sqrt(np.where(q.traces > 0.0, q.traces, 1.0))
        return np.arange(q.n_atoms), q.traces[:, None], (q._factors[:, 0] / norm[:, None])[:, :, None]
    if q._factors is not None:
        _, sv, vt = np.linalg.svd(q._factors, full_matrices=False)
        return np.arange(q.n_atoms), sv**2, np.swapaxes(vt, 1, 2)
    dim = q.dim
    parts = [(lo + np.arange(len(block)),) + tuple(np.linalg.eigh(block))
             for lo, block in unscreened_blocks(q.atoms, 2 * _RANK_RTOL)]
    if not parts:
        return np.empty(0, np.int64), np.empty((0, dim)), np.empty((0, dim, dim))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _zero_mass(q: MatrixDistribution) -> float:
    """Weight of the zero atoms: a PSD atom is zero exactly when its trace is."""
    return float(q.weights[q.traces == 0.0].sum())


def _critical(f: RhoFunction, dim_v: int, dim: int, mass):
    """(threshold, critical) of a dim_v-dimensional subspace under ``f``: its
    ``mass`` (a float or an array) is critical when it reaches the threshold
    up to a 1e-12 slack."""
    if f.case_tag == CASE0:
        thr = dim_v / dim
    elif math.isinf(f.psi_infinity):
        thr = 1.0
    else:
        thr = (f.psi_infinity - dim + dim_v) / f.psi_infinity
    return thr, mass >= thr - 1e-12


def _check_compat(q: MatrixDistribution, f: RhoFunction):
    """Refuse a loss of another dimension, or with Case 1 thresholds outside (0, 1]."""
    if f.dim is not None and f.dim != q.dim:
        raise DimensionMismatchError(
            f"loss is for dimension {f.dim}, distribution has dimension {q.dim}"
        )
    if f.case_tag != CASE0 and not f.psi_infinity > q.dim:
        raise DomainError(f"a {f.case_tag} loss needs psi(inf) > q = {q.dim}, got {f.psi_infinity}")


def _to_data(l: np.ndarray, w: ExistenceWitness) -> ExistenceWitness:
    """A witness of the frame with its basis mapped back by L, re-orthonormalized."""
    return ExistenceWitness(np.linalg.qr(l @ w.basis)[0], w.mass, w.threshold)


def check_existence(q: MatrixDistribution, f: RhoFunction, budget: int = 10_000) -> ExistenceReport:
    """Decide the subspace-mass conditions for a unique minimizer.

    A proper subspace V is critical when the mass of atoms whose column
    space lies inside V reaches dim(V)/q (Case 0) or
    (psi(inf) - q + dim(V))/psi(inf) (Case 1, threshold 1 when psi(inf) is
    infinite).  The check runs in the frame of Q, where a singular mean atom
    is the one witness (its span holds every atom); otherwise it suffices to
    enumerate subspaces spanned by unions of atom column spaces; ``budget``
    caps how many candidates are examined; a search it stops answers
    ``undecided``, which only a fit can settle (see :func:`fixed_point_solve`).
    """
    if budget < 1:
        raise InvalidInputError("budget must be positive")
    _check_compat(q, f)
    dim, witnesses = q.dim, []
    l, l_inv = _frame(q)
    if l is None:  # l_inv is the span of A: all of the mass, critical for every loss
        thr, _ = _critical(f, l_inv.shape[1], dim, 1.0)
        return ExistenceReport("violated", (ExistenceWitness(l_inv, 1.0, thr),), "exact_enumeration")

    # Zero space first: under Case 0 any mass at the zero matrix is fatal
    # (threshold 0), under Case 1 it faces the dim(V) = 0 threshold.
    zero_mass = _zero_mass(q)
    thr, critical = _critical(f, 0, dim, zero_mass)
    if zero_mass > 0 and critical:
        witnesses.append(ExistenceWitness(np.zeros((dim, 0)), zero_mass, thr))
        if f.case_tag == CASE0:
            return ExistenceReport("violated", tuple(witnesses), "exact_enumeration")

    # A proper subspace misses some atom, so it carries at most 1 - min w;
    # below a line's threshold (1 when psi(inf) is infinite) none is critical.
    exhausted = True
    if _critical(f, 1, dim, 1.0 - q.weights.min())[1]:
        bases, masses = _atom_groups(_congruence(q, l_inv))
        exhausted = not bases or _enumerate(bases, masses, zero_mass, f, dim, budget, witnesses)
    if witnesses:
        return ExistenceReport("violated", tuple(_to_data(l, w) for w in witnesses), "exact_enumeration")
    if exhausted:
        return ExistenceReport("satisfied", (), "exact_enumeration")
    return ExistenceReport("undecided", (), "budget_exceeded")


def span_witness(q: MatrixDistribution, f: RhoFunction, vectors: np.ndarray):
    """The witness of the smallest critical span of the top d eigenvectors,
    d = 1 .. q-1, of a symmetric matrix (``vectors`` in the ascending order of
    ``np.linalg.eigh``), or None; a larger nested span adds nothing.  Masses
    are recounted with the search's containment test, which needs some atom
    of Q below full rank."""
    dim, zero_mass = q.dim, _zero_mass(q)
    bases, masses = _atom_groups(q)
    inside = _containment(bases)
    for d in range(1, dim):
        basis = vectors[:, dim - d:]
        mass = zero_mass + float(masses[inside(basis)].sum())
        thr, critical = _critical(f, d, dim, mass)
        if critical:
            return ExistenceWitness(basis, mass, thr)
    return None


def _containment(bases):
    """``inside(U)``: the mask of the groups whose column space lies inside
    span(U), one product against all groups' basis columns reduced per group."""
    ranks = np.array([b.shape[1] for b in bases])
    cols, owner = np.hstack(bases), np.repeat(np.arange(len(bases)), ranks)

    def inside(u):
        resid = cols - u @ (u.T @ cols)
        return np.bincount(owner, np.einsum("ij,ij->j", resid, resid), len(bases)) <= _CONTAIN_TOL**2 * ranks

    return inside


def _enumerate(bases, masses, zero_mass, f, dim, budget, witnesses) -> bool:
    """Breadth-first search over the spans of unions of groups.

    Appends every critical candidate to ``witnesses``; returns False when the
    budget runs out.  A candidate is the span of the groups it contains, so
    the boolean mask of those groups keys it exactly.  Each new distinct
    candidate is charged when it is built, and depth one (the groups
    themselves) is swept whole before the charge is compared with the budget.
    When every group is a line and dim > 2, every pair of lines spans a
    proper plane, so the search stops at once if the lines and their pairs
    exceed the budget.
    """
    n = len(bases)
    ranks = np.array([b.shape[1] for b in bases])
    if ranks.max() == 1 and (dim == 2 or n + math.comb(n, 2) > budget):
        # A line contains no other group, so depth one needs no containment
        # test; in the plane it is the whole search.
        mass = zero_mass + masses
        thr, critical = _critical(f, 1, dim, mass)
        for g in np.flatnonzero(critical):
            witnesses.append(ExistenceWitness(bases[g], float(mass[g]), thr))
        return dim == 2 and n <= budget

    inside = _containment(bases)
    padded = np.zeros((n, dim, ranks.max()))
    for g, b in enumerate(bases):
        padded[g, :, : b.shape[1]] = b

    # The search starts from the zero subspace, whose unions are the groups.
    queue, visited, charged = deque([np.zeros((dim, 0))]), set(), 0
    while queue:
        u = queue.popleft()
        if charged > budget:  # reached only once depth one is swept whole
            return False
        if u.shape[1] == dim - 1:  # every union with it is the whole space
            continue
        # Orthonormal bases of span(U) + span(B) for the padded basis B of
        # each group not inside U: left singular vectors and union ranks.
        blocks = padded[~inside(u)]
        stacked = np.concatenate([np.broadcast_to(u, (len(blocks),) + u.shape), blocks], axis=2)
        w, sv, _ = np.linalg.svd(stacked, full_matrices=False)
        rank = np.sum(sv > 1e-10 * sv[:, :1], axis=1)
        for v in (w[i, :, :r] for i, r in enumerate(rank) if r < dim):
            mask = inside(v)
            key = np.packbits(mask).tobytes()
            if key in visited:
                continue
            visited.add(key)
            charged += 1
            if charged > budget and u.shape[1]:  # past depth one
                return False
            mass = zero_mass + float(masses[mask].sum())
            thr, critical = _critical(f, v.shape[1], dim, mass)
            if critical:
                witnesses.append(ExistenceWitness(v, mass, thr))
            queue.append(v)
    return True
