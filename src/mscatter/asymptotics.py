"""Influence functions and asymptotic standard errors.

At the standardized point (fitted scatter equal to the identity, fitted
location zero) the estimator admits the expansion

    sqrt(n) (Sigma_hat - I)  ~  n^{-1/2} sum_i Z(x_i),

with Z(x) the inverse Hessian applied to the score contribution of x.  All
computations here happen in standardized coordinates and are mapped back to
the original ones by congruence with the symmetric square root of the
fitted scatter, which is exact by equivariance.  For symmetrized estimators
of order k >= 2 the inner conditional expectation in Z is estimated by a
plug-in average over (k-1)-subsets of the observed sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distribution import (
    MatrixDistribution,
    _subsets,
    build_kstat,
    from_observations,
)
from .errors import DomainError, InvalidInputError, InvalidRegimeError
from .location import LocationScatterEstimate, augmented_rho
from .rho import CASE0, RhoFunction
from .solver import HessianOperator, ScatterEstimate, hessian
from .symmat import SymMatrix, helmert, spectral, stack_blocks


@dataclass
class InfluenceReport:
    """Per-observation influence matrices with the derived covariance.

    ``influence`` holds the standardized-coordinate influence matrices (the
    corrected augmented ones for location-scatter).  ``acov`` is the
    empirical covariance of the original-coordinate scatter influence under
    half-vectorization (pairs i <= j in row-major order); entrywise standard
    errors are sqrt(diag(acov)/n).
    """

    influence: np.ndarray = field(repr=False)
    acov: np.ndarray = field(repr=False)
    se_sigma: np.ndarray
    se_mu: Optional[np.ndarray]
    whitening: np.ndarray = field(repr=False)
    center: Optional[np.ndarray]
    k: int
    centering_residual: float
    plugin_inner: bool = False


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
    return SymMatrix(h.solve(_scores_k1(x[None, :], f)[0]))


def _scores_k1(x_std: np.ndarray, f: RhoFunction) -> np.ndarray:
    """rho'(|x|^2) x x^T - I for each row x of x_std, as an (n, q, q) stack."""
    rho_p = np.asarray(f.rho_prime(np.einsum("ni,ni->n", x_std, x_std)))
    return np.einsum("n,ni,nj->nij", rho_p, x_std, x_std) - np.eye(x_std.shape[1])


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
    (coincident points) raise ``DomainError`` under Case 0 and contribute
    nothing under Case 1.
    """
    n, q = x_std.shape
    n_eff = n if exclude is None else n - 1
    if n_eff < k - 1:
        raise InvalidInputError(f"need at least {k - 1} other observations, have {n_eff}")
    total = math.comb(n_eff, k - 1)
    m = min(total, inner_cap)
    shared = _subsets(n_eff, k - 1, inner_cap, int(seeds[0]))[None] if total <= inner_cap else None
    contrasts = helmert(k)[:, 1:] / math.sqrt(k - 1)
    out = np.empty((len(points), q, q))
    for lo, hi in stack_blocks(len(points), m * (k - 1) * q):
        sub = shared if shared is not None else np.stack(
            [_subsets(n_eff, k - 1, inner_cap, int(s)) for s in seeds[lo:hi]])
        if exclude is not None:  # subset indices skip the excluded row
            sub = sub + (sub >= np.asarray(exclude[lo:hi])[:, None, None])
        # S(x, X_J) = Y^T Y with Y the k-1 Helmert contrasts of X_J - x.
        y = (contrasts @ (x_std[sub] - points[lo:hi, None, None])).reshape(hi - lo, -1, q)
        t = np.einsum("bni,bni->bn", y, y).reshape(hi - lo, m, k - 1).sum(axis=2)
        nz = t > 0.0
        if f.case_tag == CASE0 and not nz.all():
            raise DomainError(
                "Case 0 requires every atom to have positive trace (no mass at the zero matrix)"
            )
        coeff = np.zeros(t.shape)
        coeff[nz] = (1.0 / m) * np.asarray(f.rho_prime(t[nz]))
        psi = np.swapaxes(y, 1, 2) @ (np.repeat(coeff, k - 1, axis=1)[..., None] * y)
        out[lo:hi] = (psi + np.swapaxes(psi, 1, 2)) / 2.0 - np.eye(q)
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
    nz = q_dist.traces > 0.0
    w = q_dist.weights[nz]
    tr = q_dist.traces[nz]
    fro2 = np.einsum("mij,mij->m", q_dist.atoms[nz], q_dist.atoms[nz])
    rs = np.asarray(f.rho_second(tr))
    d0 = 1.0 + (2.0 / (q * (q + 2.0))) * float(w @ (rs * (fro2 + (tr**2 - fro2) / (q - 1.0))))
    d1 = 1.0 + (1.0 / q) * float(w @ (rs * tr**2))
    return d0, d1


def _scatter_se(z_orig: np.ndarray):
    """Empirical covariance of the half-vectorized influence matrices (pairs
    i <= j in row-major order) and the entrywise standard errors
    sqrt(diag(acov)/n) as a symmetric matrix."""
    n, q, _ = z_orig.shape
    i, j = np.triu_indices(q)
    hv = z_orig[:, i, j]
    hv = hv - hv.mean(axis=0)
    acov = hv.T @ hv / n
    se_sigma = np.zeros((q, q))
    se_sigma[i, j] = se_sigma[j, i] = np.sqrt(np.diag(acov) / n)
    return acov, se_sigma


def _whitening(estimate):
    """(S^-1/2, S^1/2) of a converged fit's scatter S from one decomposition."""
    if not estimate.converged:
        raise InvalidInputError("influence analysis requires a converged estimate")
    dec = spectral(estimate.sigma.mat)
    u, root = dec.eigenvectors, np.sqrt(dec.eigenvalues)
    return (u / root) @ u.T, (u * root) @ u.T


def acov_scatter(
    x,
    estimate: ScatterEstimate,
    f: RhoFunction,
    k: int = 1,
    inner_cap: int = 5000,
    seed: int = 0,
) -> InfluenceReport:
    """Influence matrices and asymptotic standard errors for a fitted scatter.

    Whitens the data by the inverse symmetric square root of the fitted
    scatter (making the standardized estimate the identity exactly, by
    equivariance), computes the per-observation influence matrices there,
    maps them back by congruence and reports the empirical covariance and
    entrywise standard errors sqrt(diag(acov)/n).  For k >= 2 the inner
    averages of all observations come from one blocked pass of
    :func:`_inner_average`, observation i leaving itself out of its
    (k-1)-subsets and drawing them from ``seed + 1 + i`` when they are
    capped.
    """
    white, root = _whitening(estimate)
    x_std = np.asarray(x, dtype=float) @ white

    if k == 1:
        h = hessian(from_observations(x_std), f)
        z_std = h.solve(_scores_k1(x_std, f))
    else:
        h = hessian(build_kstat(x_std, k, seed=seed), f)
        n = x_std.shape[0]
        avgs = _inner_average(x_std, f, k, x_std, inner_cap, seed + 1 + np.arange(n), np.arange(n))
        z_std = k * h.solve(avgs)

    centering = float(np.linalg.norm(z_std.mean(axis=0)))
    z_orig = root @ z_std @ root
    acov, se_sigma = _scatter_se(z_orig)

    return InfluenceReport(
        influence=z_std,
        acov=acov,
        se_sigma=se_sigma,
        se_mu=None,
        whitening=white,
        center=None,
        k=k,
        centering_residual=centering,
        plugin_inner=k >= 2,
    )


def location_influence(x, nu: float, estimate: LocationScatterEstimate) -> InfluenceReport:
    """Influence matrices and standard errors for the joint (mu, Sigma) fit.

    Standardizes affinely to (0, I), computes the augmented influence
    matrices, applies the nu = 1 trace correction, and reads the location
    and scatter blocks off the corrected matrices.
    """
    white, root = _whitening(estimate)
    x_std = (np.asarray(x, dtype=float) - estimate.mu) @ white
    n, q = x_std.shape

    y = np.hstack([x_std, np.ones((n, 1))])
    q_aug = from_observations(y)
    f_aug = augmented_rho(nu, q)
    h = hessian(q_aug, f_aug)

    z = h.solve(_scores_k1(y, f_aug))
    if nu == 1.0:
        z = z - z[:, -1, -1][:, None, None] * np.eye(q + 1)

    centering = float(np.linalg.norm(z.mean(axis=0)))

    scatter_std = z[:, :q, :q]
    loc_std = z[:, :q, q]
    scatter_orig = root @ scatter_std @ root
    loc_orig = loc_std @ root

    acov, se_sigma = _scatter_se(scatter_orig)
    loc_centered = loc_orig - loc_orig.mean(axis=0)
    se_mu = np.sqrt(np.einsum("ni,ni->i", loc_centered, loc_centered) / n / n)

    return InfluenceReport(
        influence=z,
        acov=acov,
        se_sigma=se_sigma,
        se_mu=se_mu,
        whitening=white,
        center=np.array(estimate.mu),
        k=1,
        centering_residual=centering,
    )
