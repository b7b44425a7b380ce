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
    _nonzero,
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
from .symmat import SpdMatrix, SymMatrix, _smat, _svec, as_array

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_DIVERGED = "diverged"
STATUS_EXISTENCE = "existence_violated"


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
        if not (self.tol_fixed_point > 0 and self.tol_gradient > 0):  # NaN fails too
            raise InvalidInputError("tolerances must be positive")
        if not self.max_iter >= 1:
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
    _fit: Optional[_Fit] = field(default=None, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


@dataclass(frozen=True)
class _Fit:
    """What a fit keeps for its influence functions: the distribution ``q`` and
    loss ``f`` it was fit on and, when its Hessian certified the returned
    scatter, that ``hessian``.  It was built at the whitening by the lower
    Cholesky factor of that scatter, which is unique, so it is the Hessian at
    the scatter's unit-free Cholesky whitening (up to a scalar of the whitened
    atoms under Case 0, which the Hessian does not see)."""

    q: MatrixDistribution
    f: RhoFunction
    hessian: Optional[HessianOperator] = None


def _spd(s, q: MatrixDistribution):
    """(L, L^-1) for the lower Cholesky factor L of S, checked positive definite
    and matching Q: the arguments :func:`_evaluate` takes for S."""
    s = s if isinstance(s, SpdMatrix) else SpdMatrix(s)
    if s.dim != q.dim:
        raise DimensionMismatchError(f"S is {s.dim}-dimensional, Q is {q.dim}-dimensional")
    chol = np.linalg.cholesky(s.mat)
    return chol, np.linalg.inv(chol)


def _off_zero(traces: np.ndarray, f: RhoFunction):
    """Index of the atoms off the zero matrix by their traces: a mask, or the
    full slice when every atom is off zero; Case 0 refuses mass at zero."""
    return _refuse_zero(_nonzero(traces), f)


def _refuse_zero(nz, f: RhoFunction):
    """``nz`` of :func:`_off_zero` (``q._nz`` for Q's own traces), unless Case 0 meets mass at zero."""
    if f.case_tag == CASE0 and not isinstance(nz, slice):
        raise DomainError("Case 0 requires every atom to have positive trace "
                          "(no mass at the zero matrix)")
    return nz


def _evaluate(chol: np.ndarray, l_inv: np.ndarray, q: MatrixDistribution, f: RhoFunction):
    """(L(S, Q) - C, Psi(S, Q)) for S = L L^T by its lower Cholesky factor L and
    L^-1, in one pass over the atoms off zero (see :func:`_off_zero`).  C = sum_i w_i
    rho(tr M_i) is constant for Q, so only :func:`criterion` and :func:`_measure`
    take it off (:func:`_offset`).  The coefficients w rho' are scattered into
    one per atom only when some atom is at zero."""
    nz = _refuse_zero(q._nz, f)
    t = q.traces_under(l_inv.T @ l_inv)[nz]
    w = q.weights[nz]
    rho, rho_prime = f._rho_and_prime(t)
    crit = float(w @ np.asarray(rho)) + 2.0 * float(np.log(chol.diagonal()).sum())
    coeff = w * np.asarray(rho_prime)
    if not isinstance(nz, slice):
        coeff, off = np.zeros(q.n_atoms), coeff
        coeff[nz] = off
    psi = q.weighted_sum(coeff)
    return crit, (psi + psi.T) / 2.0


def _offset(q: MatrixDistribution, f: RhoFunction) -> float:
    """sum_i w_i rho(tr M_i) over the atoms off zero: what separates the value of
    :func:`_evaluate` from the criterion."""
    nz = _refuse_zero(q._nz, f)
    return float(q.weights[nz] @ np.asarray(f.rho(q.traces[nz])))


def criterion(s, q: MatrixDistribution, f: RhoFunction) -> float:
    """Evaluate the criterion L(S, Q); exactly zero at S = I."""
    _check_compat(q, f)
    return _evaluate(*_spd(s, q), q, f)[0] - _offset(q, f)


def psi_map(s, q: MatrixDistribution, f: RhoFunction) -> SpdMatrix:
    """Evaluate Psi(S, Q) = sum_i w_i rho'(tr(S^-1 M_i)) M_i.

    Raises ``NotPositiveDefiniteError`` when the result is not positive
    definite, which signals a failing existence condition.
    """
    _check_compat(q, f)
    return SpdMatrix(_evaluate(*_spd(s, q), q, f)[1])


def _measure(s: SpdMatrix, q: MatrixDistribution, f: RhoFunction):
    """(L(S, Q), ||Psi - S||_F / ||S||_F, ||L^-1 (S - Psi) L^-T||_F) for
    S = L L^T in the coordinates of Q, from one :func:`_evaluate`; Psi may be
    singular.  A fit measures the matrix it returns and ``check --sigma`` a
    given one.  Where :func:`_evaluate` refuses Q (Case 0 with mass at the
    zero matrix) there is no criterion: all three are NaN."""
    _check_compat(q, f)
    chol, w = _spd(s, q)
    try:
        crit, psi = _evaluate(chol, w, q, f)
    except DomainError:
        return math.nan, math.nan, math.nan
    g = s.mat - psi
    return crit - _offset(q, f), _frobenius(g) / _frobenius(s.mat), _frobenius(w @ g @ w.T)


def gradient(s, q: MatrixDistribution, f: RhoFunction) -> SymMatrix:
    """Whitened gradient B^-1 (S - Psi(S, Q)) B^-1 with B the symmetric
    square root of S; zero exactly at the fixed point.  For S = L L^T
    (:func:`_spd`) and the polar factor O = U V^T of L = U D V^T, B^-1 = O L^-1,
    so it is formed as O (L^-1 (S - Psi) L^-T) O^T: the whitening of
    :func:`_measure` turned by O, with the same norm.  Psi may be singular;
    Case 0 refuses mass at the zero matrix, as :func:`criterion` does."""
    _check_compat(q, f)
    s = s if isinstance(s, SpdMatrix) else SpdMatrix(s)
    chol, w = _spd(s, q)
    u, _, vt = np.linalg.svd(chol)
    o = u @ vt
    return SymMatrix(o @ (w @ (s.mat - _evaluate(chol, w, q, f)[1]) @ w.T) @ o.T)


def _start(q: MatrixDistribution, cfg: SolverConfig) -> Optional[np.ndarray]:
    """The configured start in the data's coordinates: the identity or the
    given matrix; None for ``"mean_atom"``, which is the identity of the frame."""
    if isinstance(cfg.start, SpdMatrix):
        if cfg.start.dim != q.dim:
            raise DimensionMismatchError("start matrix has the wrong dimension")
        return cfg.start.mat
    if cfg.start == "identity":
        return np.eye(q.dim)
    if cfg.start == "mean_atom":
        return None
    raise InvalidInputError(f"unknown start {cfg.start!r}")


def fixed_point_solve(
    q: MatrixDistribution,
    f: RhoFunction,
    cfg: Optional[SolverConfig] = None,
) -> ScatterEstimate:
    """Run the descending fixed-point iteration S_k = Psi(S_{k-1}, Q).

    The loss must pass :func:`mscatter.rho.validate`; the existence
    conditions are checked first.  A violated report stops the fit at its
    start, returned as configured (the identity, the given matrix, or for
    ``"mean_atom"`` the mean atom A, the identity when A is singular; scaled
    to det 1 under Case 0), with status ``existence_violated`` and 0
    iterations.  Otherwise the fit iterates in the frame of Q, where A is
    the identity, from the image of the start; an iterate whose condition
    number there exceeds 1e12 ends the fit as ``diverged``.  Either way the
    returned matrix is measured in the data's coordinates (:func:`_measure`).

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
    l, l_inv, qf = _frame(q)  # the check has built it
    start = _start(q, cfg)
    if existence.verdict == "violated":  # no minimizer to seek: the start as configured
        if start is None:
            start = np.eye(q.dim) if l is None else q.mean_atom()
        if case0:
            start = start / np.exp(np.linalg.slogdet(start)[1] / q.dim)
        return _estimate(SpdMatrix(start), q, f, 0, STATUS_EXISTENCE, [], existence)

    chol = np.eye(q.dim) if start is None else l_inv @ np.linalg.cholesky(start)
    if case0:  # det S = 1 in the frame and det L = 1, so det Sigma = 1
        chol = chol / np.exp(np.mean(np.log(np.diag(chol))))
        l = l / np.exp(np.mean(np.log(np.diag(l))))
    s, w = chol @ chol.T, np.linalg.inv(chol)

    log_values, iterations = [], 0
    while True:
        crit, psi = _evaluate(chol, w, qf, f)
        log_values.append(crit)

        diff = psi - s
        if _frobenius(w @ diff @ w.T) <= cfg.tol_gradient and (
                _frobenius(l @ diff @ l.T) / _frobenius(l @ s @ l.T) <= cfg.tol_fixed_point):
            status = STATUS_CONVERGED
            break
        if iterations >= cfg.max_iter:
            status = STATUS_MAX_ITER
            break

        iterations += 1
        step = _step(psi, case0)
        if step is None:
            status = STATUS_DIVERGED
            break
        chol, w, s = step

    certificate = None
    if existence.verdict == "undecided":
        if status == STATUS_CONVERGED and f.has_second:
            h = hessian(_congruence(qf, w), f)
            try:
                np.linalg.cholesky(h.matrix)
                existence = ExistenceReport("satisfied", (), "sufficient_condition")
                certificate = h
            except np.linalg.LinAlgError:
                pass
        elif status == STATUS_DIVERGED:
            witness = span_witness(qf, f, np.linalg.eigh(psi)[1])
            if witness is not None:
                existence = ExistenceReport("violated", (_to_data(l, witness),), "witness")

    # Sigma = L S L^T, lifted where a collapse left it indefinite: the spectrum of
    # the unit-free D^-1/2 Sigma D^-1/2 (D = diag Sigma) is kept above 1e-12 of its top.
    # The certificate is kept only for the Sigma it was built at: a lift voids it.
    sigma = (l @ chol) @ (l @ chol).T
    d = np.sqrt(np.diag(sigma))
    lam = np.linalg.eigvalsh(sigma / np.outer(d, d))
    lift = max(lam[-1] / _COND_LIMIT - lam[0], 0.0)
    sigma = SpdMatrix(sigma + lift * np.diag(d * d))
    return _estimate(sigma, q, f, iterations, status, log_values, existence,
                     certificate if lift == 0.0 else None)


# The bound tr(Psi) tr(Psi^-1) on lambda_max / lambda_min clears an iterate when
# it is at most this share of _COND_LIMIT; the eigenvalues decide the rest.
_BOUND_SHARE = 1e-3


def _diverges(psi: np.ndarray) -> bool:
    """The divergence rule: Psi is not positive definite, or its condition
    number lambda_max / lambda_min exceeds ``_COND_LIMIT``."""
    lam = np.linalg.eigvalsh(psi)
    return bool(lam[0] <= 0.0 or lam[-1] / lam[0] > _COND_LIMIT)


def _step(psi: np.ndarray, case0: bool):
    """The next iterate S = Psi, divided by det(Psi)^(1/q) under Case 0, as
    (L, L^-1, S) with S = L L^T; None when :func:`_diverges` ends the fit.

    Psi = L L^T is factored once.  lambda_max / lambda_min <= tr(Psi) tr(Psi^-1)
    = tr(Psi) ||L^-1||_F^2, so the eigenvalues are computed only when that
    bound exceeds ``_BOUND_SHARE * _COND_LIMIT`` or the factorization fails;
    the margin is far wider than the rounding of either test.  Under Case 0,
    det(Psi)^(1/q) is the square of the geometric mean of diag(L)."""
    try:
        chol = np.linalg.cholesky(psi)
    except np.linalg.LinAlgError:
        if _diverges(psi):
            return None
        raise
    l_inv = np.linalg.inv(chol)
    bound = float(psi.trace()) * float(np.vdot(l_inv, l_inv))
    if not bound <= _BOUND_SHARE * _COND_LIMIT and _diverges(psi):  # a NaN bound too
        return None
    if not case0:
        return chol, l_inv, psi
    c = np.exp(np.mean(np.log(np.diag(chol))))
    return chol / c, l_inv * c, psi / (c * c)


def _estimate(sigma, q, f, iterations, status, log_values, existence,
              certificate=None) -> ScatterEstimate:
    """The fit that returns ``sigma``, measured in the data's coordinates.  The
    frame's criteria in ``log_values`` are shifted by the constant that separates
    them from the data's; a fit that stopped at its start logs that one value.
    It keeps ``_Fit(q, f, certificate)``."""
    crit, resid, gnorm = _measure(sigma, q, f)
    log = np.asarray(log_values) + (crit - log_values[-1]) if log_values else np.array([crit])
    return ScatterEstimate(sigma, iterations, crit, gnorm, status, log, resid, existence,
                           _Fit(q, f, certificate))


def _frobenius(a: np.ndarray) -> float:
    """||a||_F summed at an exact power-of-two scale (none when max |a| lies within
    2^+-400), so it neither overflows nor underflows; equal to ``np.linalg.norm(a)``
    wherever that does neither."""
    v = a.ravel(order="K")  # the order np.linalg.norm sums in
    e = math.frexp(np.abs(v).max())[1]
    if -400 < e < 400:
        return math.sqrt(v @ v)
    w = np.ldexp(v, -e)
    return float(np.ldexp(math.sqrt(w @ w), e))


# -- Hessian operator ------------------------------------------------------------


@dataclass
class HessianOperator:
    """The second-derivative operator of the criterion at the standardized
    point, materialized in half-vectorized coordinates of symmetric matrices.

    The coordinates are orthonormal under <A, B> = tr(AB): the diagonal
    entries first, then sqrt(2) A_ij for i < j in row-major order
    (:func:`mscatter.symmat._svec`).  The Case 0 criterion is scale
    invariant, so H I = 0; its ``matrix`` adds the unit projector onto
    svec(I)/sqrt(dim), which gives ``eigenvalues`` one eigenvalue of 1 for
    the identity direction, and ``project`` removes the trace, so that
    ``apply`` and ``solve`` act on the trace-zero subspace.  ``project``,
    ``apply`` and ``solve`` take one matrix or an (n, q, q) stack.
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

    def apply(self, a) -> np.ndarray:
        """H A for a symmetric matrix A."""
        return _smat(_svec(self.project(a)) @ self.matrix.T, self.dim)

    def solve(self, a) -> np.ndarray:
        """H^{-1} A for a symmetric matrix A (in the operator's domain), or for
        each matrix of a stack, by one LU solve."""
        coords = _svec(self.project(a))
        flat = coords.reshape(-1, coords.shape[-1])
        return _smat(np.linalg.solve(self.matrix, flat.T).T.reshape(coords.shape), self.dim)

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
    nz = _refuse_zero(q._nz, f)
    second = np.zeros(q.n_atoms)
    second[nz] = q.weights[nz] * np.asarray(f.rho_second(q.traces[nz]))

    # <E_a, H E_b> = tr(E_a E_b P)/sym + sum_i w_i rho''_i tr(E_a M_i) tr(E_b M_i)
    # with P = sum_i w_i rho'_i M_i; the first term scatters P into the
    # pattern of :func:`_first_term_pattern`.
    pmat = _evaluate(np.eye(dim), np.eye(dim), q, f)[1].ravel()
    s, terms = _first_term_pattern(dim)
    h = np.zeros(s.size ** 2)
    for dst, src in terms:
        h[dst] += pmat[src]
    h = s * s.T * h.reshape(s.size, s.size)
    # The atom term sum_i w_i rho''_i c_i c_i^T is -G^T G a block, G the
    # coordinates c_i = tr(E_a M_i) scaled by sqrt(-w_i rho''_i): every
    # built-in loss has rho'' <= 0.  ``g.T @ g`` is a symmetric rank-k product,
    # exactly symmetric; atoms with rho'' > 0 (a custom loss) add one of their own.
    root = np.sqrt(np.abs(second))[:, None]
    up = second > 0
    mixed = up.any()
    for lo, g in q._svec_blocks() if second.any() else ():
        g *= root[lo:lo + len(g)]
        if mixed:
            at = up[lo:lo + len(g)]
            gp, g = g[at], g[~at]
            h += gp.T @ gp
        h -= g.T @ g
    if f.case_tag == CASE0:  # the unit projector onto svec(I)/sqrt(dim)
        h[:dim, :dim] += 1.0 / dim
    return HessianOperator(dim=dim, case_tag=f.case_tag, matrix=h)


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
