"""Criterion evaluation and the monotone fixed-point solver for scatter.

The criterion is

    L(S, Q) = sum_i w_i [rho(tr(S^-1 M_i)) - rho(tr M_i)] + log det S

whose minimizers coincide with fixed points of the map

    Psi(S, Q) = sum_i w_i rho'(tr(S^-1 M_i)) M_i .

Iterating Psi strictly decreases the criterion until a fixed point is
reached, which is what the solver exploits: every iterate's criterion value
is logged and convergence is declared on the pair (relative fixed-point
residual, gradient norm).  For the scale-invariant Case 0 loss each iterate
is renormalized to determinant one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .distribution import (
    _COND_LIMIT,
    ExistenceReport,
    MatrixDistribution,
    WishartGroup,
    _check_compat,
    _congruence,
    _frame,
    _to_data,
    check_existence,
    from_wishart_groups,
    span_witness,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidInputError,
    UnsupportedOperationError,
)
from .rho import CASE0, RhoFunction, tyler, validate
from .symmat import SpdMatrix, SymMatrix, as_array, helmert

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_DIVERGED = "diverged"
STATUS_EXISTENCE = "existence_violated"

# Atoms per block when the Hessian sums its atom term, so no (m, q, q) stack
# of all atoms is built.
_HESSIAN_BLOCK = 256


@dataclass
class SolverConfig:
    """Tolerances and limits for the fixed-point iteration.

    Case 0 iterates are always renormalized to determinant one (the criterion
    is scale invariant there); other cases never are.
    """

    tol_fixed_point: float = 1e-10
    tol_gradient: float = 1e-9
    max_iter: int = 500
    start: Union[str, SpdMatrix] = "identity"  # "identity" | "mean_atom" | SpdMatrix
    existence_budget: int = 1000

    def __post_init__(self):
        if self.tol_fixed_point <= 0 or self.tol_gradient <= 0:
            raise InvalidInputError("tolerances must be positive")
        if self.max_iter < 1:
            raise InvalidInputError("max_iter must be at least 1")


@dataclass
class ScatterEstimate:
    """Solver output: the fitted scatter matrix plus convergence diagnostics."""

    sigma: SpdMatrix
    iterations: int
    criterion: float
    gradient_norm: float
    status: str
    descent_log: np.ndarray
    fixed_point_residual: float
    existence: Optional[ExistenceReport] = None

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def _spd(s, q: MatrixDistribution) -> np.ndarray:
    """The lower Cholesky factor of S, checked positive definite and matching Q."""
    s = s if isinstance(s, SpdMatrix) else SpdMatrix(s)
    if s.dim != q.dim:
        raise DimensionMismatchError(f"S is {s.dim}-dimensional, Q is {q.dim}-dimensional")
    return np.linalg.cholesky(s.mat)


def _evaluate(chol: np.ndarray, q: MatrixDistribution, f: RhoFunction):
    """(L(S, Q), Psi(S, Q), L^-1) in one pass over the atoms, for S = L L^T
    given by its lower Cholesky factor L, so S^-1 = L^-T L^-1; atoms at the
    zero matrix contribute to neither, which the scale-invariant log loss
    does not allow."""
    if f.case_tag == CASE0 and not q.case0_ready:
        raise DomainError(
            "Case 0 requires every atom to have positive trace (no mass at the zero matrix)"
        )
    l_inv = np.linalg.inv(chol)
    nz = q.traces > 0.0
    t = q.traces_under(l_inv.T @ l_inv)[nz]
    w = q.weights[nz]
    crit = float(w @ (np.asarray(f.rho(t)) - np.asarray(f.rho(q.traces[nz]))))
    coeff = np.zeros(q.n_atoms)
    coeff[nz] = w * np.asarray(f.rho_prime(t))
    psi = q.weighted_sum(coeff)
    return crit + 2.0 * float(np.sum(np.log(np.diag(chol)))), (psi + psi.T) / 2.0, l_inv


def criterion(s, q: MatrixDistribution, f: RhoFunction) -> float:
    """Evaluate the criterion L(S, Q); exactly zero at S = I."""
    _check_compat(q, f)
    return _evaluate(_spd(s, q), q, f)[0]


def psi_map(s, q: MatrixDistribution, f: RhoFunction) -> SpdMatrix:
    """Evaluate Psi(S, Q) = sum_i w_i rho'(tr(S^-1 M_i)) M_i.

    Raises ``NotPositiveDefiniteError`` when the result is not positive
    definite, which signals a failing existence condition.
    """
    _check_compat(q, f)
    return SpdMatrix(_evaluate(_spd(s, q), q, f)[1])


def gradient(s, q: MatrixDistribution, f: RhoFunction) -> SymMatrix:
    """Whitened gradient B^-1 (S - Psi(S, Q)) B^-T with B the symmetric
    square root of S; zero exactly at the fixed point."""
    s = s if isinstance(s, SpdMatrix) else SpdMatrix(s)
    psi = psi_map(s, q, f)
    r = s.inv_sqrt()
    return SymMatrix(r @ (s.mat - psi.mat) @ r)


def _start_factor(q: MatrixDistribution, cfg: SolverConfig, l_inv: np.ndarray) -> np.ndarray:
    """Cholesky factor of the configured start in the frame A = L L^T: L^-1 times
    that of the identity or of a given matrix; the identity for ``"mean_atom"``."""
    if isinstance(cfg.start, SpdMatrix):
        if cfg.start.dim != q.dim:
            raise DimensionMismatchError("start matrix has the wrong dimension")
        return l_inv @ np.linalg.cholesky(cfg.start.mat)
    if cfg.start == "identity":
        return l_inv
    if cfg.start == "mean_atom":
        return np.eye(q.dim)
    raise InvalidInputError(f"unknown start {cfg.start!r}")


def fixed_point_solve(
    q: MatrixDistribution,
    f: RhoFunction,
    cfg: Optional[SolverConfig] = None,
) -> ScatterEstimate:
    """Run the descending fixed-point iteration S_k = Psi(S_{k-1}, Q).

    The loss must pass :func:`mscatter.rho.validate`; the existence
    conditions are checked first and a violated report stops the fit with
    status ``existence_violated`` once the start matrix is evaluated, so the
    residual and gradient norm describe the start.  The fit iterates in the
    frame of Q, where the mean atom A is the identity, from the image of the
    start; an iterate whose condition number there exceeds 1e12 ends the fit
    as ``diverged``.  The reported values are in the data's coordinates.

    A check the budget leaves ``undecided`` is settled by the fit when it
    can be proven.  A converged fit whose loss has rho'' builds the Hessian
    at its fitted point; the criterion is geodesically convex, so a
    positive definite Hessian certifies the unique minimizer and the report
    becomes ``satisfied`` by ``sufficient_condition``.  A fit that ends
    ``diverged`` scans the nested eigenspaces of its last Psi
    (:func:`span_witness`); the smallest critical one is the witness of a
    report ``violated`` by ``witness``.
    """
    cfg = cfg or SolverConfig()
    _check_compat(q, f)

    report = validate(f)
    if not report.passed:
        raise InvalidInputError(
            "loss function violates the standing assumptions: " + "; ".join(report.failures)
        )

    case0 = f.case_tag == CASE0
    existence = check_existence(q, f, cfg.existence_budget)
    l, l_inv = _frame(q)
    if l is None:  # the report is violated: the fit stops at its start
        l = l_inv = np.eye(q.dim)
    qf = _congruence(q, l_inv)
    chol = _start_factor(q, cfg, l_inv)
    if case0:  # det S = 1 in the frame and det L = 1, so det Sigma = 1
        chol = chol / np.exp(np.mean(np.log(np.diag(chol))))
        l = l / np.exp(np.mean(np.log(np.diag(l))))
    s = chol @ chol.T

    log_values = []
    iterations = 0
    while True:
        crit, psi, w = _evaluate(chol, qf, f)
        log_values.append(crit)

        diff = psi - s
        gnorm = _frobenius(w @ diff @ w.T)

        # Checked before convergence: a start matrix can be an exact fixed
        # point of Psi even though no unique minimizer exists.
        if existence.verdict == "violated":
            status = STATUS_EXISTENCE
            break
        if gnorm <= cfg.tol_gradient and (
                _frobenius(l @ diff @ l.T) / _frobenius(l @ s @ l.T) <= cfg.tol_fixed_point):
            status = STATUS_CONVERGED
            break
        if iterations >= cfg.max_iter:
            status = STATUS_MAX_ITER
            break

        lam = np.linalg.eigvalsh(psi)
        iterations += 1
        if lam[0] <= 0.0 or lam[-1] / lam[0] > _COND_LIMIT:
            status = STATUS_DIVERGED
            break
        s = psi / np.exp(np.mean(np.log(lam))) if case0 else psi
        chol = np.linalg.cholesky(s)  # positive definite within the condition limit

    if existence.verdict == "undecided":
        if status == STATUS_CONVERGED and f.has_second:
            try:
                np.linalg.cholesky(hessian(_congruence(qf, w), f).matrix)
                existence = ExistenceReport("satisfied", (), "sufficient_condition")
            except np.linalg.LinAlgError:
                pass
        elif status == STATUS_DIVERGED:
            witness = span_witness(qf, f, np.linalg.eigh(psi)[1])
            if witness is not None:
                existence = ExistenceReport("violated", (_to_data(l, witness),), "witness")

    # Sigma = L S L^T, lifted where a collapse left it indefinite: the spectrum of
    # the unit-free D^-1/2 Sigma D^-1/2 (D = diag Sigma) is kept above 1e-12 of its top.
    sigma = (l @ chol) @ (l @ chol).T
    d = np.sqrt(np.diag(sigma))
    lam = np.linalg.eigvalsh(sigma / np.outer(d, d))
    sigma = SpdMatrix(sigma + max(lam[-1] / _COND_LIMIT - lam[0], 0.0) * np.diag(d * d))
    # Report the returned iterate as ``check --sigma`` recomputes it; the
    # frame's criterion differs from the data's by a constant.
    crit, psi, w = _evaluate(np.linalg.cholesky(sigma.mat), q, f)
    diff = psi - sigma.mat
    fp_resid = _frobenius(diff) / _frobenius(sigma.mat)
    gnorm = _frobenius(w @ diff @ w.T)
    return ScatterEstimate(
        sigma=sigma,
        iterations=iterations,
        criterion=crit,
        gradient_norm=gnorm,
        status=status,
        descent_log=np.asarray(log_values) + (crit - log_values[-1]),
        fixed_point_residual=fp_resid,
        existence=existence,
    )


def _frobenius(a: np.ndarray) -> float:
    """||a||_F summed at an exact power-of-two scale, so it neither overflows
    nor underflows; equal to ``np.linalg.norm(a)`` wherever that does neither."""
    v = a.ravel(order="K")  # the order np.linalg.norm sums in
    e = math.frexp(np.abs(v).max())[1]
    w = np.ldexp(v, -e)
    return float(np.ldexp(math.sqrt(w @ w), e))


# -- Hessian operator ------------------------------------------------------------


def _diagonal_map(dim: int, case_tag: str) -> np.ndarray:
    """Rows giving the diagonal coordinates from a matrix diagonal: the
    identity, or for Case 0 the (dim-1, dim) orthonormal Helmert contrasts
    that span the trace-zero diagonals."""
    return helmert(dim) if case_tag == CASE0 else np.eye(dim)


@dataclass
class HessianOperator:
    """The second-derivative operator of the criterion at the standardized
    point, materialized in half-vectorized coordinates of symmetric matrices.

    The coordinates are orthonormal under <A, B> = tr(AB): the diagonal
    entries first, then sqrt(2) A_ij for i < j in row-major order.  For Case 0
    the domain is the trace-zero subspace, the diagonal is replaced by its
    dim-1 Helmert contrasts, and ``apply`` projects its argument there first.
    ``project``, ``apply`` and ``solve`` take one matrix or an (n, q, q) stack.
    """

    dim: int
    case_tag: str
    matrix: np.ndarray = field(repr=False)

    def project(self, a) -> np.ndarray:
        a = as_array(a)
        a = (a + np.swapaxes(a, -1, -2)) / 2.0
        if self.case_tag == CASE0:
            trace = np.trace(a, axis1=-2, axis2=-1)[..., None, None]
            a = a - (trace / self.dim) * np.eye(self.dim)
        return a

    def _coords(self, a: np.ndarray) -> np.ndarray:
        i, j = np.triu_indices(self.dim, 1)
        diag = np.diagonal(a, axis1=-2, axis2=-1) @ _diagonal_map(self.dim, self.case_tag).T
        return np.concatenate([diag, math.sqrt(2.0) * a[..., i, j]], axis=-1)

    def _reconstruct(self, coords: np.ndarray) -> np.ndarray:
        dmap = _diagonal_map(self.dim, self.case_tag)
        i, j = np.triu_indices(self.dim, 1)
        off = coords[..., dmap.shape[0]:] / math.sqrt(2.0)
        out = np.zeros(coords.shape[:-1] + (self.dim, self.dim))
        out[..., i, j] = off
        out[..., j, i] = off
        d = np.arange(self.dim)
        out[..., d, d] = coords[..., : dmap.shape[0]] @ dmap
        return out

    def apply(self, a) -> np.ndarray:
        """H A for a symmetric matrix A."""
        return self._reconstruct(self._coords(self.project(a)) @ self.matrix.T)

    def solve(self, a) -> np.ndarray:
        """H^{-1} A for a symmetric matrix A (in the operator's domain).

        A stack is solved as one system with all right-hand sides."""
        coords = self._coords(self.project(a))
        # Explicit row count: Tyler's domain at dim 1 has no coordinates.
        flat = coords.reshape(math.prod(coords.shape[:-1]), coords.shape[-1])
        return self._reconstruct(np.linalg.solve(self.matrix, flat.T).T.reshape(coords.shape))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@functools.lru_cache(maxsize=None)
def _first_term_pattern(dim: int):
    """Where P enters the Hessian's first term, once per dimension.

    On the coordinate matrices E_(i,j) = s_ij (e_i e_j^T + e_j e_i^T), s = 1/2
    on the diagonal and 1/sqrt(2) off it, the first term at a = (i, j),
    b = (k, l) is s_a s_b (d_jk P_il + d_jl P_ik + d_ik P_jl + d_il P_jk), d
    the Kronecker delta.  Returns the factors s (a (p, 1) column) and, for
    each of the four terms in that order, the flat positions (a, b) of the
    (p, p) term where its delta holds with the flat indices of the P entries
    added there.  Adding the entries term by term from zero and scaling by
    s s^T gives the p x p broadcast of this formula bit for bit.
    """
    iu, ju = np.triu_indices(dim, 1)
    i = np.concatenate([np.arange(dim), iu])[:, None]
    j = np.concatenate([np.arange(dim), ju])[:, None]
    k, l = i.T, j.T
    p = i.shape[0]
    terms = []
    for delta, row, col in ((j == k, i, l), (j == l, i, k), (i == k, j, l), (i == l, j, k)):
        a, b = np.nonzero(delta)
        terms += [(a * p + b).astype(np.int32), (row * dim + col)[a, b].astype(np.int32)]
    s = np.where(i == j, 0.5, 1.0 / math.sqrt(2.0))
    for arr in (*terms, s):
        arr.flags.writeable = False  # the cache hands the same arrays to every call
    return s, tuple(zip(terms[::2], terms[1::2]))


def hessian(q: MatrixDistribution, f: RhoFunction) -> HessianOperator:
    """Materialize the Hessian operator of L(., Q) at the identity.

    Valid at the standardized point: the caller pre-whitens Q so that the
    fitted scatter is the identity.  Requires a loss with a second
    derivative (Case 0, Case 1', or a Case 1 family that provides one).
    """
    _check_compat(q, f)
    if not f.has_second:
        raise UnsupportedOperationError(
            f"{f.kind} loss has no second derivative; Hessian is unavailable"
        )
    dim = q.dim
    nz = q.traces > 0.0
    second = np.zeros(q.n_atoms)
    second[nz] = q.weights[nz] * np.asarray(f.rho_second(q.traces[nz]))

    # <E_a, H E_b> = tr(E_a E_b P)/sym + sum_i w_i rho''_i tr(E_a M_i) tr(E_b M_i)
    # with P = sum_i w_i rho'_i M_i; the first term scatters P into the
    # pattern of :func:`_first_term_pattern`.
    pmat = _evaluate(np.eye(dim), q, f)[1].ravel()
    s, terms = _first_term_pattern(dim)
    term1 = np.zeros(s.size ** 2)
    for dst, src in terms:
        term1[dst] += pmat[src]
    term1 = s * s.T * term1.reshape(s.size, s.size)
    # Change the diagonal block of rows and columns to the operator's
    # diagonal coordinates (a no-op outside Case 0).
    dmap = _diagonal_map(dim, f.case_tag)
    term1 = np.vstack([dmap @ term1[:dim], term1[dim:]])
    term1 = np.hstack([term1[:, :dim] @ dmap.T, term1[:, dim:]])

    h = HessianOperator(dim=dim, case_tag=f.case_tag, matrix=term1)
    for lo, atoms in q.atom_blocks(_HESSIAN_BLOCK):
        coords = h._coords(atoms)  # (block, p): tr(E_a M_i)
        h.matrix += (coords.T * second[lo:lo + len(atoms)]) @ coords
    return h


def directional_scan(b, a, q: MatrixDistribution, f: RhoFunction, t_grid) -> np.ndarray:
    """Criterion values along t -> L(B exp(tA) B^T, Q); convex in t."""
    b = np.asarray(as_array(b), dtype=float)
    a = as_array(a)
    a = (a + a.T) / 2.0
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) < 0):
        raise InvalidInputError("t_grid must be sorted ascending")
    lam, u = np.linalg.eigh(a)
    out = np.empty(t_grid.shape)
    for i, t in enumerate(t_grid):
        e = (u * np.exp(t * lam)) @ u.T
        out[i] = criterion(b @ e @ b.T, q, f)
    return out


# -- proportional covariance matrices --------------------------------------------


@dataclass
class ProCovEstimate:
    """Joint estimate for the proportional-covariance model: a determinant-one
    common scatter and one positive scale per group."""

    sigma: SpdMatrix
    scales: np.ndarray
    objective: float
    stationarity_residual: float
    estimate: ScatterEstimate

    @property
    def status(self) -> str:
        return self.estimate.status


def solve_procov(groups, cfg: Optional[SolverConfig] = None) -> ProCovEstimate:
    """Fit proportional covariance matrices from Wishart groups.

    The profile criterion over the common scatter is exactly the Case 0
    criterion on the mixture of group matrices weighted by degrees of
    freedom, so the fit runs the scale-invariant fixed point and then reads
    the scales off the fitted scatter.
    """
    groups = [g if isinstance(g, WishartGroup) else WishartGroup(*g) for g in groups]
    q = from_wishart_groups(groups)
    est = fixed_point_solve(q, tyler(q.dim), cfg)
    sigma = est.sigma

    dofs = np.array([g.dof for g in groups], dtype=float)
    scales = q.traces_under(sigma.inv()) / (q.dim * dofs)

    # Stationarity: m_+^{-1} sum_i c_i^{-1} S_i should be proportional to sigma.
    recon = q.weighted_sum(1.0 / (scales * dofs.sum()))
    alpha = float(np.sum(recon * sigma.mat) / np.sum(sigma.mat * sigma.mat))
    resid = float(np.linalg.norm(recon - alpha * sigma.mat) / np.linalg.norm(sigma.mat))

    return ProCovEstimate(
        sigma=sigma,
        scales=scales,
        objective=est.criterion,
        stationarity_residual=resid,
        estimate=est,
    )
