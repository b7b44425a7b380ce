"""Joint location-scatter estimation for multivariate t with nu >= 1.

The (mu, Sigma) problem in dimension q is reduced to a scatter-only problem
in dimension q+1: observations are augmented to y(x) = [x; 1] and the block
matrix

    Gamma = [[Sigma + mu mu^T, mu], [mu^T, 1]]

satisfies y^T Gamma^{-1} y = (x - mu)^T Sigma^{-1} (x - mu) + 1.  Replacing
the t loss of order (nu, q) by the shifted loss of order (nu - 1, q + 1)
turns the location-scatter criterion into the scatter criterion of the
augmented problem exactly.  For nu = 1 the augmented loss is the
scale-invariant log loss and the fitted Gamma is rescaled so its corner
entry is one; for nu > 1 the corner entry is one automatically at the
minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distribution import ExistenceReport, MatrixDistribution, _observations, check_existence, from_observations
from .errors import InternalConsistencyError, InvalidInputError, NotPositiveDefiniteError
from .rho import RhoFunction, t_dist, tyler
from .solver import (
    STATUS_CONVERGED,
    ScatterEstimate,
    SolverConfig,
    fixed_point_solve,
)
from .symmat import SpdMatrix


@dataclass(frozen=True)
class AugmentedProblem:
    """The q+1 dimensional scatter problem equivalent to (mu, Sigma)
    estimation: augmented rho, augmented atom distribution."""

    nu: float
    q: int
    augmented_rho: RhoFunction
    q_aug: MatrixDistribution


@dataclass
class LocationScatterEstimate:
    """Joint estimate (mu, Sigma) with the fitted augmented matrix Gamma."""

    mu: Optional[np.ndarray]
    sigma: Optional[SpdMatrix]
    gamma: SpdMatrix
    status: str
    iterations: int
    criterion: float
    inner: ScatterEstimate

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def _check_nu(nu: float) -> float:
    if not nu >= 1:
        raise InvalidInputError(
            f"location-scatter estimation requires nu >= 1, got {nu}; "
            "the augmented problem is only covered for these degrees of freedom"
        )
    return float(nu)


def augmented_rho(nu: float, q: int) -> RhoFunction:
    """Loss of the augmented problem: shifting the t loss of order (nu, q)
    by one gives the t loss of order (nu - 1, q + 1), or the scale-invariant
    log loss when nu = 1."""
    nu = _check_nu(nu)
    if nu == 1.0:
        return tyler(q + 1)
    return t_dist(nu - 1.0, q + 1)


def augment(x, nu: float) -> AugmentedProblem:
    """Map observations to y(x) = [x; 1] and build the augmented problem."""
    x = _observations(x)
    nu = _check_nu(nu)
    n, q = x.shape
    y = np.hstack([x, np.ones((n, 1))])
    return AugmentedProblem(
        nu=nu, q=q, augmented_rho=augmented_rho(nu, q), q_aug=from_observations(y)
    )


def check_location_existence(x, nu: float, budget: int = 10_000) -> ExistenceReport:
    """Existence condition for the joint minimizer.

    The mass any affine flat a + V may carry must stay below
    (dim V + nu)/(q + nu).  Affine flats in R^q correspond to linear
    subspaces of the augmented space, so the check runs on the augmented
    problem; witness bases live in the augmented coordinates.
    """
    prob = augment(x, nu)
    return check_existence(prob.q_aug, prob.augmented_rho, budget)


def estimate_location_scatter(
    x, nu: float, cfg: Optional[SolverConfig] = None
) -> LocationScatterEstimate:
    """Fit (mu, Sigma) by solving the augmented scatter problem.

    Returns mu = b/c and Sigma = A/c - mu mu^T from the block decomposition
    Gamma = [[A, b], [b^T, c]].  For non-converged runs mu and sigma are
    None and the raw gamma carries the last iterate.
    """
    prob = augment(x, nu)
    est = fixed_point_solve(prob.q_aug, prob.augmented_rho, cfg)

    gamma_arr = np.array(est.sigma.mat)
    if prob.nu == 1.0:
        corner = gamma_arr[-1, -1]
        if corner <= 0:
            raise InternalConsistencyError("augmented corner entry is not positive")
        gamma_arr = gamma_arr / corner
    gamma = SpdMatrix(gamma_arr)

    mu = None
    sigma = None
    if est.status == STATUS_CONVERGED:
        c = gamma_arr[-1, -1]
        b = gamma_arr[:-1, -1]
        a = gamma_arr[:-1, :-1]
        mu = b / c
        try:
            sigma = SpdMatrix(a / c - np.outer(mu, mu))
        except NotPositiveDefiniteError as exc:
            raise InternalConsistencyError(
                "extracted scatter block is not positive definite"
            ) from exc

    return LocationScatterEstimate(
        mu=mu,
        sigma=sigma,
        gamma=gamma,
        status=est.status,
        iterations=est.iterations,
        criterion=est.criterion,
        inner=est,
    )


def location_criterion(mu, sigma, x, nu: float) -> float:
    """Direct evaluation of the location-scatter criterion.

    Mean of rho((x - mu)^T Sigma^{-1} (x - mu)) - rho(x^T x) plus
    log det Sigma, with the t loss of order (nu, q).  Agrees exactly with
    the augmented scatter criterion at the corresponding Gamma.
    """
    x = _observations(x)
    nu = _check_nu(nu)
    q = x.shape[1]
    sigma = sigma if isinstance(sigma, SpdMatrix) else SpdMatrix(sigma)
    mu = np.asarray(mu, dtype=float)
    f = t_dist(nu, q)
    centered = x - mu
    d = np.einsum("ni,ni->n", centered, sigma.solve(centered.T).T)
    base = np.einsum("ni,ni->n", x, x)
    return float(np.mean(np.asarray(f.rho(d)) - np.asarray(f.rho(base)))) + sigma.logdet
