"""Influence functions and asymptotic standard errors.

At the standardized point (fitted scatter equal to the identity, fitted
location zero) the estimator admits the expansion

    sqrt(n) (Sigma_hat - I)  ~  n^{-1/2} sum_i Z(x_i),

with Z(x) the inverse Hessian applied to the score contribution of x.  The
standard errors standardize by T, the inverse of the lower Cholesky factor
T^-1 of the fitted scatter (T Sigma_hat T^T = I), taken without units as the
solver's frame takes the mean atom's.  A fit certified by its Hessian hands
on only that Hessian: it was built at the fit's own Cholesky whitening, and
a Cholesky factor is unique, so it is the Hessian at T.  The scores
rho'(|y|^2) svec(y y^T) - svec(I) of the whitened rows y = T x are read in
half-vectorized coordinates (:func:`mscatter.symmat._svec`), and the
covariance of Z is mapped back to the data's coordinates by congruence with
T^-1, one p x p map K; both steps are exact by equivariance.  Since
Cov(Z) = H^-1 Cov(score) H^-1, one solve with the rows of K gives the
covariance without solving for each observation.  The per-observation
influence matrices of :class:`InfluenceReport` are those of the symmetric
whitening Sigma_hat^-1/2, one rotation away, formed on first access.  For
symmetrized estimators of order k >= 2 the inner conditional expectation in
Z is estimated by a plug-in average over (k-1)-subsets of the observed
sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .distribution import (
    MatrixDistribution,
    _covariance_factors,
    _observations,
    _off_zero,
    _subsets,
    build_kstat,
    from_observations,
)
from .errors import DimensionMismatchError, DomainError, InvalidInputError, InvalidRegimeError
from .location import LocationScatterEstimate, augmented_rho
from .rho import CASE0, RhoFunction
from .solver import HessianOperator, ScatterEstimate, hessian
from .symmat import SymMatrix, _smat, _svec, _sym, _unit_free_cholesky, stack_blocks


@dataclass
class InfluenceReport:
    """Per-observation influence matrices with the derived covariance.

    ``acov`` is the empirical covariance of the original-coordinate scatter
    influence under half-vectorization (pairs i <= j in row-major order);
    entrywise standard errors are sqrt(diag(acov)/n).  ``influence`` holds
    the influence matrices standardized by ``whitening``, the symmetric
    inverse square root of the fitted scatter (the augmented ones, standardized
    affinely and with the nu = 1 correction, for location-scatter); the two
    are formed when first read.
    """

    acov: np.ndarray = field(repr=False)
    se_sigma: np.ndarray
    se_mu: Optional[np.ndarray]
    center: Optional[np.ndarray]
    k: int
    centering_residual: float
    plugin_inner: bool = False
    _public: Optional[Callable] = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def _formed(self):
        return self._public()  # (influence, whitening)

    @property
    def influence(self) -> np.ndarray:
        return self._formed[0]

    @property
    def whitening(self) -> np.ndarray:
        return self._formed[1]


def influence_k1(
    q_std: MatrixDistribution,
    f: RhoFunction,
    x_std,
    hess: Optional[HessianOperator] = None,
) -> SymMatrix:
    """Influence matrix Z(x) = H^{-1}(rho'(|x|^2) x x^T - I) at the
    standardized point (order k = 1).

    ``q_std`` must be pre-whitened so the fitted scatter is the identity.
    Case 0 excludes x = 0.
    """
    x = np.asarray(x_std, dtype=float).ravel()
    if x.shape[0] != q_std.dim:
        raise InvalidInputError(f"x has dimension {x.shape[0]}, expected {q_std.dim}")
    if f.case_tag == CASE0 and float(x @ x) == 0.0:
        raise DomainError("the scale-invariant loss has no influence function at x = 0")
    h = hess if hess is not None else hessian(q_std, f)
    return SymMatrix(h.solve(f.rho_prime(float(x @ x)) * np.outer(x, x) - np.eye(len(x))))


def _inner_average(x_std: np.ndarray, f: RhoFunction, k: int, points: np.ndarray,
                   inner_cap: int, seeds, exclude: Optional[np.ndarray] = None) -> np.ndarray:
    """Plug-in averages mean(rho'(tr S) S) - I = Psi(I, .) - I over the sample
    covariances S = S(x, X_J), one (q, q) matrix for each row x of ``points``.

    For row b, J runs over the (k-1)-subsets of the sample without index
    ``exclude[b]`` (of the whole sample when ``exclude`` is None): all of
    them in lexicographic order, the same for every row, when there are at
    most ``inner_cap``; otherwise ``inner_cap`` of them drawn from
    ``seeds[b]``.  The rows are evaluated a block at a time, at most
    ``_BLOCK_ENTRIES`` factor entries a block.  As in Psi, zero covariances
    (coincident points) follow :func:`mscatter.distribution._off_zero`.
    """
    n, q = x_std.shape
    n_eff = n if exclude is None else n - 1
    if n_eff < k - 1:
        raise InvalidInputError(f"need at least {k - 1} other observations, have {n_eff}")
    total = math.comb(n_eff, k - 1)
    m = min(total, inner_cap)
    shared = _subsets(n_eff, k - 1, inner_cap, int(seeds[0]))[None] if total <= inner_cap else None
    out = np.empty((len(points), q, q))
    for lo, hi in stack_blocks(len(points), m * (k - 1) * q):
        sub = shared if shared is not None else np.stack(
            [_subsets(n_eff, k - 1, inner_cap, int(s)) for s in seeds[lo:hi]])
        if exclude is not None:  # subset indices skip the excluded row
            sub = sub + (sub >= np.asarray(exclude[lo:hi])[:, None, None])
        y = _covariance_factors(points[lo:hi, None, None], x_std[sub]).reshape(hi - lo, -1, q)
        t = np.einsum("bni,bni->bn", y, y).reshape(hi - lo, m, k - 1).sum(axis=2)
        nz = _off_zero(t, f)
        coeff = np.zeros(t.shape)
        coeff[nz] = (1.0 / m) * np.asarray(f.rho_prime(t[nz]))
        psi = np.swapaxes(y, 1, 2) @ (np.repeat(coeff, k - 1, axis=1)[..., None] * y)
        out[lo:hi] = _sym(psi) - np.eye(q)
    return out


def influence_kge2(
    x_std,
    f: RhoFunction,
    k: int,
    x_point,
    inner_cap: int = 5000,
    seed: int = 0,
    hess: Optional[HessianOperator] = None,
    exclude: Optional[int] = None,
) -> SymMatrix:
    """Influence matrix for the order-k symmetrized estimator.

    Z(x) = k H^{-1}( E[rho'(tr S(x, X_2..X_k)) S(x, X_2..X_k)] - I ) with the
    inner expectation estimated over (k-1)-subsets of the standardized
    sample.  Passing ``exclude`` drops one sample index from the subsets
    (used when x is that sample point, making the weighted influence
    average telescope to the solver's gradient, which is zero).
    """
    x_std = np.asarray(x_std, dtype=float)
    if k < 2:
        raise InvalidInputError("influence_kge2 requires k >= 2; use influence_k1")
    if x_std.shape[0] < k:
        raise InvalidInputError(f"need at least k={k} observations, have {x_std.shape[0]}")
    x = np.asarray(x_point, dtype=float).ravel()
    if hess is None:
        hess = hessian(build_kstat(x_std, k, seed=seed), f)
    avg = _inner_average(x_std, f, k, x[None], inner_cap, [seed],
                         None if exclude is None else [exclude])
    return SymMatrix(k * hess.solve(avg[0]))


@dataclass(frozen=True)
class SphericalConstants:
    """Closed-form influence constants for spherically symmetric data under
    the t-type loss of order (nu, q); nu = 0 is the scale-invariant loss.

    Z(x) = (nu + |x|^2)^{-1} (c0 A0(x) + c1 a(x) I) with
    A0(x) = xx^T - q^{-1}|x|^2 I and a(x) = q^{-1}|x|^2 - 1; c2 is the
    location coefficient of the joint problem (None when nu = 0, where no
    location functional exists).  d0 and d1 diagonalize the Hessian for
    rank-one orthogonally invariant distributions.
    """

    kappa: float
    c0: float
    c1: float
    c2: Optional[float]
    d0: float
    d1: float


def spherical_constants(radii_sq, nu: float, q: int, weights=None) -> SphericalConstants:
    """Constants of the spherical closed-form influence function.

    Parameters
    ----------
    radii_sq : array-like
        Squared norms |x|^2 of the (standardized) radial distribution.
    nu : float
        Degrees of freedom of the t-type loss; 0 gives the scale-invariant
        loss.
    q : int
        Dimension.
    weights : array-like, optional
        Probability weights of the radii; equal by default.
    """
    r = np.asarray(radii_sq, dtype=float).ravel()
    if np.any(r < 0) or r.size == 0:
        raise InvalidInputError("squared radii must be nonnegative and nonempty")
    if nu < 0:
        raise InvalidInputError("nu must be nonnegative")
    if q < 1:
        raise InvalidInputError("q must be >= 1")
    if weights is None:
        w = np.full(r.size, 1.0 / r.size)
    else:
        w = np.asarray(weights, dtype=float).ravel()
        if w.shape != r.shape or np.any(w < 0):
            raise InvalidInputError("weights must be nonnegative and match the radii")
        w = w / w.sum()

    if nu > 0:
        kappa = float(w @ ((nu + q) * nu / (nu + r) ** 2))
    else:
        kappa = 0.0
    if kappa >= 1.0:
        raise InvalidRegimeError(f"kappa = {kappa:.6g} >= 1; constants undefined")

    den0 = q + 2.0 * (1.0 - kappa) * nu / q
    if den0 <= 0:
        raise InvalidRegimeError("denominator of c0 is not positive")
    c0 = (q + nu) * (q + 2.0) / den0
    c1 = q / (1.0 - kappa) if nu > 0 else 0.0

    den2 = q - 2.0 * (1.0 - kappa)
    if nu > 0:
        if den2 <= 0:
            raise InvalidRegimeError("denominator of the location constant c2 is not positive")
        c2 = q / den2
    else:
        c2 = q / den2 if den2 > 0 else None

    # Hessian coefficients, rank-one specialization: rho''(r) r^2 with
    # rho'' (s) = -(nu + q)/(nu + s)^2.
    second_moment = float(w @ (-(nu + q) * r**2 / (nu + r) ** 2))
    d0 = 1.0 + 2.0 * second_moment / (q * (q + 2.0))
    d1 = 1.0 + second_moment / q

    return SphericalConstants(kappa=kappa, c0=c0, c1=c1, c2=c2, d0=d0, d1=d1)


def orth_hessian_coeffs(q_dist: MatrixDistribution, f: RhoFunction):
    """Diagonal coefficients (d0, d1) of the Hessian for an orthogonally
    invariant distribution at the standardized point: H A = d0 A0 + d1 A1
    splitting A into trace-free and multiple-of-identity parts.

    The caller asserts (or Haar-averages to enforce) orthogonal invariance.
    """
    q = q_dist.dim
    if q < 2:
        raise InvalidInputError("orthogonal-invariance coefficients need q >= 2")
    nz = _off_zero(q_dist, f)
    w = q_dist.weights[nz]
    tr = q_dist.traces[nz]
    fro2 = np.concatenate([np.einsum("ma,ma->m", c, c) for _, c in q_dist._svec_blocks()])[nz]
    rs = np.asarray(f.rho_second(tr))
    d0 = 1.0 + (2.0 / (q * (q + 2.0))) * float(w @ (rs * (fro2 + (tr**2 - fro2) / (q - 1.0))))
    d1 = 1.0 + (1.0 / q) * float(w @ (rs * tr**2))
    return d0, d1


def _observed(x, estimate) -> np.ndarray:
    """The rows ``x`` checked against a converged ``estimate``."""
    if not estimate.converged:
        raise InvalidInputError("influence analysis requires a converged estimate")
    x = _observations(x)
    if x.shape[1] != estimate.sigma.dim:
        raise DimensionMismatchError(
            f"observations have dimension {x.shape[1]}, the fit {estimate.sigma.dim}")
    return x


def _kept(estimate: ScatterEstimate, rows: Optional[np.ndarray], f: RhoFunction):
    """The Hessian that certified ``estimate`` (``solver._Fit``) when it was fit
    on the observations ``rows`` (never when they are None), else None.  A loss
    other than the fit's is refused: same kind and parameters, or for ``custom``
    the same object."""
    fit = estimate._fit
    if fit is None:
        return None
    g = fit.f
    same = f is g if "custom" in (f.kind, g.kind) else (f.kind, f.params) == (g.kind, g.params)
    if not same:
        raise InvalidInputError(f"the loss {f!r} is not the fit's {g!r}")
    q = fit.q
    if rows is None or q._r != 1 or not np.array_equal(q._rows, rows.T):
        return None
    return fit.hessian


def _scores(q: MatrixDistribution, f: RhoFunction) -> np.ndarray:
    """rho'(|y|^2) svec(y y^T) - svec(I) for each observation y of Q, one row
    each (:func:`mscatter.symmat._svec`); atoms at zero follow
    :func:`mscatter.distribution._off_zero`."""
    nz = _off_zero(q, f)
    rho_p = np.zeros(q.n_atoms)
    rho_p[nz] = f.rho_prime(q.traces[nz])
    s = np.concatenate([c for _, c in q._svec_blocks()])
    s *= rho_p[:, None]
    s[:, :q.dim] -= 1.0
    return s


def _influence(h: HessianOperator, s: np.ndarray, k_map: np.ndarray):
    """For the influence z = S H^-1 of half-vectorized scores S, one a row:
    (K Cov(z) K^T, mean(z), z on demand), Cov the empirical covariance.

    Case 0 first removes the svec(I) part of S, as ``h.project`` does.  Since
    Cov(z) = H^-1 Cov(S) H^-1, one LU solve with the rows of K and the mean
    score gives both without solving for the n rows of z, which only the
    third item does when it is called."""
    if h.case_tag == CASE0:
        s[:, :h.dim] -= s[:, :h.dim].mean(axis=1, keepdims=True)
    mean = s.mean(axis=0)
    sol = np.linalg.solve(h.matrix, np.column_stack([k_map.T, mean]))
    m = sol[:, :-1].T  # K H^-1, H symmetric
    centered = s - mean
    cov = m @ (centered.T @ centered / len(s)) @ m.T
    return cov, sol[:, -1], lambda: np.linalg.solve(h.matrix, s.T).T


def _congruence_rows(t_inv: np.ndarray, i, j) -> np.ndarray:
    """The map K from half-vectorized coordinates to the entries (i, j) of
    T^-1 Z T^-T, one row per pair: the congruence back to the data's
    coordinates.  The entry is tr(O Z) for the outer product O of rows i and
    j of T^-1, so its row holds the coordinates of the symmetric part of O."""
    o = t_inv[i][:, :, None] * t_inv[j][:, None, :]
    return _svec(_sym(o))


def _se_sigma(acov: np.ndarray, q: int, n: int) -> np.ndarray:
    """sqrt(diag(acov)/n) as a symmetric (q, q) matrix, acov over the pairs
    i <= j in row-major order."""
    i, j = np.triu_indices(q)
    se = np.zeros((q, q))
    se[i, j] = se[j, i] = np.sqrt(np.diag(acov) / n)
    return se


def acov_scatter(
    x,
    estimate: ScatterEstimate,
    f: RhoFunction,
    k: int = 1,
    inner_cap: int = 5000,
    seed: int = 0,
) -> InfluenceReport:
    """Influence matrices and asymptotic standard errors for a fitted scatter.

    Works at the whitening T of the fit, T^-1 the lower Cholesky factor of the
    fitted scatter (see the module docstring): for k = 1 at the Hessian that
    certified the fit when ``estimate`` was fit on these rows with this loss,
    otherwise at one built there.  ``acov`` is the empirical covariance of the
    influence mapped back to the data's coordinates by congruence with T^-1;
    entrywise standard errors are sqrt(diag(acov)/n).  For k >= 2 the inner
    averages of all observations come from one blocked pass of
    :func:`_inner_average`, observation i leaving itself out of its
    (k-1)-subsets and drawing them from ``seed + 1 + i`` when they are capped.
    A loss other than the fit's is refused; a k other than the fit's is not.
    """
    x = _observed(x, estimate)
    n, q = x.shape
    if k < 1:
        raise InvalidInputError(f"symmetrization order k must satisfy k >= 1, got k={k}")
    kept = _kept(estimate, x if k == 1 else None, f)
    t_inv, t = _unit_free_cholesky(estimate.sigma.mat)
    y = x @ t.T
    if k == 1:
        q_white = from_observations(y)
        h, s = kept or hessian(q_white, f), _scores(q_white, f)
    else:
        h = hessian(build_kstat(y, k, seed=seed), f)
        avgs = _inner_average(y, f, k, y, inner_cap, seed + 1 + np.arange(n), np.arange(n))
        s = k * _svec(avgs)

    acov, z_mean, z = _influence(h, s, _congruence_rows(t_inv, *np.triu_indices(q)))

    def public():
        white = estimate.sigma.inv_sqrt()
        o = white @ t_inv  # the rotation from T's coordinates to the symmetric whitening
        return o @ _smat(z(), q) @ o.T, white

    return InfluenceReport(
        acov=acov,
        se_sigma=_se_sigma(acov, q, n),
        se_mu=None,
        center=None,
        k=k,
        centering_residual=float(np.linalg.norm(z_mean)),
        plugin_inner=k >= 2,
        _public=public,
    )


def location_influence(x, nu: float, estimate: LocationScatterEstimate) -> InfluenceReport:
    """Influence matrices and standard errors for the joint (mu, Sigma) fit.

    Solves the augmented problem at the whitening T of the fitted Gamma, T^-1
    its lower Cholesky factor, reusing the Hessian that certified the fit when
    it was fit on these rows with this nu, and reads the standard errors of
    mu = b/c and Sigma = A/c - mu mu^T off Gamma = [[A, b], [b^T, c]] by the
    delta method.  Both are unchanged by a scale of Gamma, so the nu = 1 trace
    correction does not enter them; the public ``influence`` matrices carry it.
    """
    x = _observed(x, estimate)
    n, q = x.shape
    f_aug = augmented_rho(nu, q)
    y = np.hstack([x, np.ones((n, 1))])
    t_inv, t = _unit_free_cholesky(estimate.inner.sigma.mat)
    q_white = from_observations(y @ t.T)
    h = _kept(estimate.inner, y, f_aug) or hessian(q_white, f_aug)

    gamma = estimate.inner.sigma.mat
    c = gamma[q, q]
    mu, a = gamma[:q, q] / c, gamma[:q, :q] / c
    i, j = np.triu_indices(q)
    d_c = _congruence_rows(t_inv, [q], [q])
    d_mu = (_congruence_rows(t_inv, np.arange(q), np.full(q, q)) - mu[:, None] * d_c) / c
    d_sigma = ((_congruence_rows(t_inv, i, j) - a[i, j][:, None] * d_c) / c
               - d_mu[i] * mu[j][:, None] - mu[i][:, None] * d_mu[j])
    cov, z_mean, z = _influence(h, _scores(q_white, f_aug), np.vstack([d_sigma, d_mu]))
    acov = cov[:i.size, :i.size]

    # Under nu = 1 the corner of the symmetric-coordinate influence is taken off
    # its diagonal; o is the last row of the rotation to those coordinates.
    centering = _smat(z_mean, q + 1)
    if nu == 1.0:
        o = t_inv[q] / math.sqrt(c)
        centering -= (o @ centering @ o) * np.eye(q + 1)

    def public():
        white = estimate.sigma.inv_sqrt()
        std = np.eye(q + 1)  # y -> [W (x - mu); 1], W the symmetric whitening
        std[:q, :q], std[:q, q] = white, -white @ estimate.mu
        rot = std @ t_inv / math.sqrt(c)
        z_std = rot @ _smat(z(), q + 1) @ rot.T
        if nu == 1.0:
            z_std -= z_std[:, -1, -1][:, None, None] * np.eye(q + 1)
        return z_std, white

    return InfluenceReport(
        acov=acov,
        se_sigma=_se_sigma(acov, q, n),
        se_mu=np.sqrt(np.diag(cov)[i.size:] / n),
        center=np.array(estimate.mu),
        k=1,
        centering_residual=float(np.linalg.norm(centering)),
        _public=public,
    )
