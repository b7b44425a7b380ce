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
from . import symmat
from .symmat import (PsdAtom, _unit_free_cholesky, as_array, cholesky_passes, clip_psd_dust, helmert,
                     unscreened_blocks)

# Eigenvalues below this relative size do not count toward an atom's column
# space when enumerating candidate subspaces.
_RANK_RTOL = 1e-9

# Containment slack for "column space lies inside subspace" tests.
_CONTAIN_TOL = 1e-8

# A union whose Gram matrix G passes the Cholesky screen G - 1e-12 tr(G) I =
# L L^T has lambda_min > 1e-12 lambda_max, far above rounding and above the
# 1e-20 that the search's 1e-10 cut on singular values puts on lambda: it
# fills the space for the SVD too.
_UNION_SCREEN_RTOL = 1e-12

# Entries per block of a temporary array: the index marks of k-subsets drawn
# by Floyd's algorithm and the containment residuals of the existence search.
_BLOCK_ENTRIES = 1 << 20

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

    Observations, k-subsets and their congruence transforms keep factor rows
    y with M_i = Y_i^T Y_i: the r rows of each Y_i are consecutive columns of
    one C-contiguous (q, m r) array ``_rows`` (``_factors()`` views it as the
    (m, r, q) stack).  Wishart groups and atoms given to this constructor keep
    the dense (m, q, q) stack ``_atoms``.  ``traces_under``, ``weighted_sum``
    and ``_svec_blocks`` read either form, and the traces are
    ``traces_under(I)``; only ``atoms``, the read-only dense stack, and
    ``atom(i)``, a single ``PsdAtom``, expand factor rows into dense atoms,
    formed on each access and never kept.  Weights are positive and sum to
    one.

    Dense atoms are clipped of eigenvalue dust by :func:`clip_psd_dust`, which
    decomposes only the blocks that its Cholesky screen cannot prove free of
    dust.  For the existence check, the rank of a rank-one factor is read off
    its trace, other factors get a batched SVD, and a dense atom that passes
    a Cholesky screen is full rank without being decomposed (see
    ``_atom_groups``).
    """

    __slots__ = ("dim", "weights", "traces", "_nz", "_rows", "_r", "_atoms", "_framed")

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
        self._rows, self._r, self._atoms = None, None, arr
        self._finish(weights)

    @classmethod
    def _from_rows(cls, rows: np.ndarray, r: int, weights=None):
        """Distribution of the atoms whose factor rows are the columns of a
        (q, m r) array, r columns per atom.  A C-contiguous ``rows`` is taken
        as the distribution's own; any other is copied into that order."""
        self = cls.__new__(cls)
        rows = np.ascontiguousarray(rows, dtype=float)
        self._rows, self._r, self._atoms = rows, r, None
        self._finish(weights)
        return self

    def _finish(self, weights):
        """Traces, weights and atoms off zero of the storage just set."""
        self.dim = self._atoms.shape[-1] if self._rows is None else self._rows.shape[0]
        with np.errstate(over="ignore"):
            traces = self.traces_under(np.eye(self.dim))
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
        for a in (w, traces, self._rows, self._atoms):
            if a is not None:
                a.flags.writeable = False
        self.weights, self.traces, self._framed = w, traces, None
        self._nz = _nonzero(traces)  # the atoms off zero: fixed, as the traces are

    def _factors(self) -> np.ndarray:
        """The factor rows as the (m, r, q) stack of the Y_i: a view of ``_rows``."""
        return self._rows.T.reshape(-1, self._r, self.dim)

    def _per_atom(self, col: np.ndarray) -> np.ndarray:
        """One value per atom from one per factor row (along the last axis),
        summed over each atom's rows."""
        return col if self._r == 1 else col.reshape(*col.shape[:-1], -1, self._r).sum(axis=-1)

    @property
    def atoms(self) -> np.ndarray:
        """The read-only (m, q, q) stack of atoms: the dense storage, or the
        expansion of the factor rows, formed on each access."""
        return self._atoms if self._rows is None else _expand(self._factors())

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    def traces_under(self, a: np.ndarray) -> np.ndarray:
        """t_i = tr(A M_i) for every atom and a symmetric (q, q) matrix A.  Factor
        rows Y give the column sums of (A Y) * Y over each atom's rows."""
        if self._rows is None:
            return self._atoms.reshape(len(self._atoms), -1) @ a.ravel()
        b = a @ self._rows
        b *= self._rows
        return self._per_atom(b.sum(axis=0))

    def weighted_sum(self, c) -> np.ndarray:
        """sum_i c_i M_i for one coefficient per atom.  Factor rows Y give
        (Y c) Y^T, with Y c, each atom's rows scaled by its c_i."""
        c = np.asarray(c, dtype=float)
        if self._rows is None:
            return (c @ self._atoms.reshape(self.n_atoms, -1)).reshape(self.dim, self.dim)
        return (self._rows * (c if self._r == 1 else np.repeat(c, self._r))) @ self._rows.T

    def _svec_blocks(self):
        """(start, C) for consecutive blocks of atoms, C[b] the half-vectorized
        coordinates tr(E_a M_i) of atom i = start + b (:func:`symmat._svec`).
        Factor rows give the products y_i y_j of each row's entries over the
        p = q(q+1)/2 pairs in that order (times sqrt(2) for i < j) summed over
        each atom's rows.  A block counts the p coordinates it builds per dense
        atom or factor row, at most ``symmat._BLOCK_ENTRIES``.  Each C is a new
        array, which the caller may overwrite."""
        dim = self.dim
        p = dim * (dim + 1) // 2
        if self._rows is None:
            for lo, hi in symmat.stack_blocks(self.n_atoms, p):
                yield lo, symmat._svec(self._atoms[lo:hi])
            return
        i, j = np.triu_indices(dim)
        i, j = (a[np.argsort(i != j, kind="stable")] for a in (i, j))  # diagonal first
        for lo, hi in symmat.stack_blocks(self.n_atoms, p * self._r):
            y = self._rows[:, lo * self._r:hi * self._r]
            prod = y[i] * y[j]
            prod[dim:] *= math.sqrt(2.0)
            yield lo, self._per_atom(prod).T

    def atom(self, i: int) -> PsdAtom:
        """Atom i alone, expanded from its factor rows when it has them."""
        return PsdAtom(self._atoms[i] if self._rows is None else _expand(self._factors()[i]), _trusted=True)

    def mean_atom(self) -> np.ndarray:
        """Weighted mean of the atoms."""
        return self.weighted_sum(self.weights)

    def __repr__(self):
        return f"MatrixDistribution(dim={self.dim}, n_atoms={self.n_atoms})"


def _expand(y: np.ndarray) -> np.ndarray:
    """The read-only atoms Y^T Y of factor rows Y (..., r, q)."""
    a = np.einsum("...ri,...rj->...ij", y, y)
    a.flags.writeable = False
    return a


def _nonzero(traces: np.ndarray):
    """Index of the atoms off the zero matrix by their traces: the full slice
    when every atom is off zero, otherwise the read-only mask."""
    nz = traces > 0.0
    nz.flags.writeable = False
    return slice(None) if nz.all() else nz


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
    return MatrixDistribution._from_rows(np.array(x.T, order="C"), 1)


def sample_covariance(points) -> PsdAtom:
    """Sample covariance matrix of k >= 2 points (denominator k - 1).

    Its column space equals the span of the pairwise differences of the
    points, so identical points give the zero atom.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise InvalidInputError("sample covariance needs at least two points")
    y = _covariance_factors(pts[None, :1], pts[None, 1:])[0]
    return PsdAtom(MatrixDistribution._from_rows(y.T, len(y)).atoms[0])


def _covariance_factors(first: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The factor rows Y, S = Y^T Y, of every order-k atom: S is the sample
    covariance of a point ``first`` and the k-1 points of ``rest`` (..., k-1, q),
    and Y the k-1 Helmert contrasts of rest - first scaled by 1/sqrt(k-1), so
    coincident points give exactly zero rows."""
    k = rest.shape[-2] + 1
    return helmert(k)[:, 1:] @ (rest - first) / math.sqrt(k - 1)


def _subsets(n: int, k: int, cap: int, seed: int) -> np.ndarray:
    """k-subsets of range(n) as sorted index rows: all C(n, k) of them in
    lexicographic order when there are at most ``cap``, otherwise ``cap``
    distinct ones drawn uniformly and reproducibly from ``seed``.

    A drawn row is k uniform indices, kept when they are distinct, where that
    happens at least half the time (n!/(n-k)! >= n^k / 2); otherwise rows
    come from :func:`_floyd`, k-subsets by construction, in blocks of at most
    ``_BLOCK_ENTRIES`` marks.  The distinct rows drawn, in lexicographic
    order (:func:`_distinct_rows`), are trimmed to ``cap`` by a seeded
    permutation."""
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
    distinct, block = 2 * math.perm(n, k) >= n**k, max(_BLOCK_ENTRIES // n, 1)
    chosen = np.empty((0, k), dtype=np.int64)
    while chosen.shape[0] < cap:
        rows = 2 * (cap - chosen.shape[0]) + 16
        if distinct:
            batch = rng.integers(0, n, size=(rows, k))
            batch.sort(axis=1)
            batch = batch[np.all(np.diff(batch, axis=1) > 0, axis=1)]
        else:
            batch = np.vstack([_floyd(rng, n, k, min(block, rows - lo))
                               for lo in range(0, rows, block)])
        chosen = _distinct_rows(np.vstack([chosen, batch]))
    # Deterministic trim: keep a random but seed-determined selection of cap rows.
    keep = rng.permutation(chosen.shape[0])[:cap]
    return chosen[np.sort(keep)]


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer matrix in lexicographic order, as
    ``np.unique(a, axis=0)`` gives them, by a sort and an adjacent-row compare."""
    a = a[np.lexsort(a.T[::-1])]
    new = np.ones(len(a), dtype=bool)  # empty for an empty stack
    new[1:] = np.any(a[1:] != a[:-1], axis=1)
    return a[new]


def _floyd(rng, n: int, k: int, rows: int) -> np.ndarray:
    """``rows`` uniform k-subsets of range(n) as sorted index rows, by Floyd's
    algorithm in every row at once: for j = n-k .. n-1 a row takes a uniform
    index up to j, or j itself when it holds that index already."""
    marks, r = np.zeros((rows, n), dtype=bool), np.arange(rows)
    for j in range(n - k, n):
        t = rng.integers(0, j + 1, size=rows)
        t[marks[r, t]] = j
        marks[r, t] = True
    return np.nonzero(marks)[1].reshape(rows, k)


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

    pts = x[_subsets(n, k, cap, seed)]
    y = _covariance_factors(pts[:, :1], pts[:, 1:])
    return MatrixDistribution._from_rows(y.reshape(-1, x.shape[1]).T, k - 1)


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
    if q._rows is not None:
        return MatrixDistribution._from_rows(t @ q._rows, q._r, q.weights)
    return MatrixDistribution(t @ q.atoms @ t.T, q.weights, clip=False)


def _frame(q: MatrixDistribution):
    """The frame of Q, kept on Q once built, where its mean atom A (the Gaussian fit)
    is I.  The rank of A is judged without units, on R = D^-1/2 A D^-1/2 (D = diag A),
    to 1/_COND_LIMIT of its top eigenvalue.  Returns (L, L^-1, Q' = L^-1 Q L^-T), A = L L^T,
    L = D^1/2 chol(R), or for a singular A (None, an orthonormal basis of its span, None)."""
    if q._framed is None:
        a = q.mean_atom()
        d = np.sqrt(np.diag(a))
        d[d == 0.0] = 1.0  # a zero row of A stays a zero row of R
        r = a / np.outer(d, d)
        lam, vec = np.linalg.eigh(r)
        keep = lam > lam[-1] / _COND_LIMIT
        if keep.all():
            l, l_inv = _unit_free_cholesky(a)
            q._framed = l, l_inv, _congruence(q, l_inv)
        else:
            q._framed = None, np.linalg.qr(d[:, None] * vec[:, keep])[0], None
        q._framed[1].flags.writeable = False  # kept on Q, and a witness basis when A is singular
    return q._framed


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
        first, inverse = _unique_rows(np.round(u, 9))
        bases += list(u[first][:, :, None])
        masses += np.bincount(inverse, w[idx[lines]], first.size).tolist()

    spaces = np.nonzero((rank >= 2) & (rank < dim))[0]
    if spaces.size:
        kept = vec[spaces] * keep[spaces][:, None, :]
        keys = np.round(kept @ np.swapaxes(kept, 1, 2), 9).reshape(spaces.size, -1)
        first, inverse = _unique_rows(keys)
        mass = np.bincount(inverse, w[idx[spaces]])
        for g in np.argsort(first):
            i = spaces[first[g]]
            bases.append(vec[i][:, keep[i]])
            masses.append(float(mass[g]))
    return bases, np.asarray(masses)


def _unique_rows(r: np.ndarray):
    """(first, inverse) of ``np.unique(r, axis=0, return_index=True,
    return_inverse=True)`` for a float matrix, bit for bit: one stable sort of
    the first column, and a lexicographic sort only of the rows in runs that
    tie on it.  As in ``np.unique``, -0.0 and 0.0 compare equal, groups are in
    lexicographic order and ``first`` is each group's lowest row index."""
    order = np.argsort(r[:, 0], kind="stable")
    col = r[order, 0]
    new = np.ones(len(col), dtype=bool)  # row starts a group of the sorted rows
    new[1:] = col[1:] != col[:-1]
    tied = ~new
    tied[:-1] |= ~new[1:]
    at = np.flatnonzero(tied)
    if at.size:
        rows = r[order[at]]
        perm = np.lexsort(rows[:, ::-1].T)  # stable: equal rows keep index order
        order[at] = order[at[perm]]
        rows, later = rows[perm], np.flatnonzero(~new[at])
        new[at[later]] = np.any(rows[later] != rows[later - 1], axis=1)
    inverse = np.empty(len(col), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _spectra(q: MatrixDistribution):
    """(indices, eigenvalues, eigenvectors as columns) of the atoms that may
    lie in a proper subspace.  A rank-one factor y has the eigenvalue
    tr = |y|^2 and the direction y / |y| (zero when tr is); other factor
    stacks get one batched SVD.  Of a dense stack only the blocks in which
    some M fails the screen M - 2 _RANK_RTOL tr(M) I = L L^T get ``eigh``: a
    passing M has lambda_min > 2 _RANK_RTOL lambda_max, full rank under the
    rank cut by a margin far above rounding."""
    if q._r == 1:
        norm = np.sqrt(np.where(q.traces > 0.0, q.traces, 1.0))
        return np.arange(q.n_atoms), q.traces[:, None], (q._rows.T / norm[:, None])[:, :, None]
    if q._rows is not None:
        _, sv, vt = np.linalg.svd(q._factors(), full_matrices=False)
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
    if not budget >= 1:  # NaN fails too
        raise InvalidInputError("budget must be positive")
    _check_compat(q, f)
    dim, witnesses = q.dim, []
    l, l_inv, qf = _frame(q)
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
        bases, masses = _atom_groups(qf)
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
    ranks = np.array([b.shape[1] for b in bases])
    inside = _containment(_padded(bases, ranks), ranks)
    for d in range(1, dim):
        basis = vectors[:, dim - d:]
        mass = zero_mass + float(masses[inside(basis[None])[0]].sum())
        thr, critical = _critical(f, d, dim, mass)
        if critical:
            return ExistenceWitness(basis, mass, thr)
    return None


def _padded(bases, ranks) -> np.ndarray:
    """The (groups, q, max rank) stack of the group bases, each padded with zero columns."""
    padded = np.zeros((len(bases), bases[0].shape[0], ranks.max()))
    for g, b in enumerate(bases):
        padded[g, :, : b.shape[1]] = b
    return padded


def _containment(padded, ranks):
    """``inside(U)``: for a (c, q, w) stack of bases, orthonormal columns
    padded with zero columns, the (c, groups) mask of the groups whose column
    space lies inside each span(U).  One product against the padded columns
    of all groups (a zero column lies in every span) per chunk of at most
    ``_BLOCK_ENTRIES`` residual entries, summed per group."""
    n, dim, width = padded.shape
    cols, cut = padded.transpose(1, 0, 2).reshape(dim, -1), _CONTAIN_TOL**2 * ranks
    step = max(_BLOCK_ENTRIES // cols.size, 1)

    def inside(u):
        mask = np.empty((len(u), n), dtype=bool)
        for lo in range(0, len(u), step):
            v = u[lo:lo + step]
            resid = v @ (np.swapaxes(v, 1, 2) @ cols)
            np.subtract(cols, resid, out=resid)
            sq = np.einsum("cij,cij->cj", resid, resid).reshape(len(v), n, width)
            mask[lo:lo + step] = sum(sq[:, :, j] for j in range(width)) <= cut
        return mask

    return inside


def _unions(nodes, padded, ranks):
    """(group, rank, basis) of each proper span span(U) + span(B_g) of a
    queued node (U, held, first) of ``nodes``, all of one dimension, with
    the padded basis B_g of a group g >= first that U does not hold: node by
    node, groups in order, the bases stacked and padded with zero columns.
    A union with dim U + rank B_g >= q whose U U^T + B_g B_g^T passes the
    Cholesky screen at ``_UNION_SCREEN_RTOL`` fills the space unseen; every
    other union gets the batched SVD, whose left singular vectors above its
    1e-10 relative cut are the span's basis."""
    u = np.stack([node[0] for node in nodes])
    dim, du = u.shape[1:]
    join = ~np.stack([node[1] for node in nodes])
    join &= np.arange(len(ranks)) >= np.array([node[2] for node in nodes])[:, None]
    at, groups = np.nonzero(join)
    full = du + ranks[groups] >= dim
    if full.any():
        b = padded[groups[full]]
        gram = (u @ np.swapaxes(u, 1, 2))[at[full]] + b @ np.swapaxes(b, 1, 2)
        full[full] = cholesky_passes(gram, _UNION_SCREEN_RTOL)
        at, groups = at[~full], groups[~full]
    w, sv, _ = np.linalg.svd(np.concatenate([u[at], padded[groups]], axis=2), full_matrices=False)
    rank = np.sum(sv > 1e-10 * sv[:, :1], axis=1)
    proper = rank < dim
    rank = rank[proper]
    width = rank.max(initial=0)
    return groups[proper], rank, w[proper, :, :width] * (np.arange(width) < rank[:, None])[:, None, :]


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

    Only unions that may be proper are decomposed (:func:`_unions`), and a
    depth-one node built from group g skips the groups j < g: that union was
    built before as a child of the node of group j (or of the earlier node
    with its key), is that node itself, or fills the space.  Neither changes
    a candidate, key, charge or witness of the search, nor does building the
    unions of several queued nodes at once.
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

    padded = _padded(bases, ranks)
    inside = _containment(padded, ranks)
    # A run of nodes takes unions whose Gram matrices fill at most one block
    # of symmat's screens, small enough to stay in cache.
    run_nodes = max(symmat._BLOCK_ENTRIES // (n * dim * dim), 1)

    # The search starts from the zero subspace, whose unions are the groups.
    # A node is queued with its basis, the mask of the groups it holds (its
    # key), and the first group it joins.  The unions of a run of queued
    # nodes of one dimension are built at once; their children are then taken
    # in the order of their nodes, as if each node were popped alone.
    queue, visited, charged = deque([(np.zeros((dim, 0)), np.zeros(n, dtype=bool), 0)]), set(), 0
    while queue:
        if charged > budget:  # reached only once depth one is swept whole
            return False
        du = queue[0][0].shape[1]
        run = [queue.popleft()]
        while queue and len(run) < run_nodes and queue[0][0].shape[1] == du:
            run.append(queue.popleft())
        if du == dim - 1:  # every union with them is the whole space
            continue
        groups, rank, w = _unions(run, padded, ranks)
        for g, r, v, mask in zip(groups, rank, w, inside(w)):
            key = np.packbits(mask).tobytes()
            if key in visited:
                continue
            visited.add(key)
            charged += 1
            if charged > budget and du:  # past depth one
                return False
            v = v[:, :r].copy()
            mass = zero_mass + float(masses[mask].sum())
            thr, critical = _critical(f, v.shape[1], dim, mass)
            if critical:
                witnesses.append(ExistenceWitness(v, mass, thr))
            queue.append((v, mask.copy(), 0 if du else g))
    return True
