"""Seeded random generators for tests and Monte Carlo acceptance runs.

Every sampler draws from a ``SeededStream`` wrapping numpy's PCG64 bit
generator.  The algorithm identity is part of the external contract: given
the same seed and parameters, every sampler reproduces the same output
across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .symmat import PsdAtom, SpdMatrix, as_array

ALGORITHM = "numpy PCG64"


@dataclass
class SeededStream:
    """A single-owner random stream; sequential draws consume it."""

    seed: int
    algorithm: str = ALGORITHM
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if self.algorithm != ALGORITHM:
            raise InvalidInputError(f"unsupported generator {self.algorithm!r}")
        self.rng = np.random.Generator(np.random.PCG64(self.seed))

    def split(self, offset: int) -> "SeededStream":
        """Independent stream derived deterministically from this seed."""
        return SeededStream(seed=(self.seed * 0x9E3779B9 + offset) % 2**63)


def _as_stream(stream) -> np.random.Generator:
    if isinstance(stream, SeededStream):
        return stream.rng
    if isinstance(stream, np.random.Generator):
        return stream
    return SeededStream(int(stream)).rng


def mvn(mu, sigma, n: int, stream) -> np.ndarray:
    """n i.i.d. draws from N(mu, Sigma) via Cholesky-transformed standard
    normals; rows are observations."""
    sigma = sigma if isinstance(sigma, SpdMatrix) else SpdMatrix(as_array(sigma))
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (sigma.dim,):
        raise InvalidInputError(f"mu has shape {mu.shape}, expected ({sigma.dim},)")
    rng = _as_stream(stream)
    z = rng.standard_normal((n, sigma.dim))
    left = np.linalg.cholesky(sigma.mat)
    return mu + z @ left.T


def mvt(mu, sigma, nu: float, n: int, stream) -> np.ndarray:
    """n i.i.d. draws from the multivariate t with center mu, scatter Sigma
    and nu degrees of freedom: Gaussian draws divided by sqrt(chi2_nu / nu).

    Draw order is fixed (normals first, then the chi-square radii) so output
    is reproducible for a given seed.
    """
    if not nu > 0:
        raise InvalidInputError(f"degrees of freedom must be positive, got {nu}")
    sigma = sigma if isinstance(sigma, SpdMatrix) else SpdMatrix(as_array(sigma))
    mu = np.asarray(mu, dtype=float)
    rng = _as_stream(stream)
    z = rng.standard_normal((n, sigma.dim))
    w = rng.chisquare(nu, size=n) / nu
    left = np.linalg.cholesky(sigma.mat)
    return mu + (z / np.sqrt(w)[:, None]) @ left.T


def sphere(q: int, n: int, stream) -> np.ndarray:
    """n points uniform on the unit sphere of R^q."""
    rng = _as_stream(stream)
    z = rng.standard_normal((n, q))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def haar_orthogonal(q: int, stream, size: int | None = None) -> np.ndarray:
    """Haar-distributed random orthogonal matrix (or a stack of ``size``).

    QR of a standard Gaussian matrix with the R diagonal signs fixed to be
    positive, which makes the factorization unique and the Q factor Haar.
    """
    if q < 1:
        raise InvalidInputError("q must be >= 1")
    rng = _as_stream(stream)
    shape = (q, q) if size is None else (size, q, q)
    g = rng.standard_normal(shape)
    qmat, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d = np.where(d == 0, 1.0, d)
    return qmat * d[..., None, :]


def wishart(sigma, m: int, stream) -> PsdAtom:
    """Wishart draw: the sum of m Gaussian outer products with scale Sigma."""
    if m < 1:
        raise InvalidInputError("degrees of freedom must be >= 1")
    sigma = sigma if isinstance(sigma, SpdMatrix) else SpdMatrix(as_array(sigma))
    y = mvn(np.zeros(sigma.dim), sigma, m, stream)
    return PsdAtom(y.T @ y)
