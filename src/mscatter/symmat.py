"""Dense symmetric-matrix kernel.

Everything downstream (loss criteria, fixed-point iterations, Hessian
operators) is built on the small universe of types defined here: symmetric
matrices, positive semidefinite atoms, positive definite scatter matrices and
their spectral decompositions, together with the exponential/logarithm pair
between the symmetric and the symmetric positive definite cone.

All values are immutable after construction and all operations are pure, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NotPositiveDefiniteError,
    RangeError,
)

# Relative tolerance below which negative eigenvalue dust on a nominally PSD
# matrix is clipped to zero.
PSD_DUST_RTOL = 1e-10

# A matrix M for which M - 1e-12 tr(M) I has a Cholesky factor has its
# smallest eigenvalue above zero by far more than rounding: it has no dust.
_DUST_SCREEN_RTOL = 1e-12

# Entries of a stack per block when it is screened, evaluated or
# half-vectorized a block at a time, so no temporary of the size of the whole
# stack is built.
_BLOCK_ENTRIES = 1 << 16

# exp(x) overflows double precision just above 709.
_EXP_OVERFLOW = 709.0


def as_array(x) -> np.ndarray:
    """Return the underlying ndarray of a matrix wrapper, or the input itself."""
    return np.asarray(getattr(x, "mat", x), dtype=float)


def _check_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidInputError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


class SymMatrix:
    """A real symmetric matrix; construction symmetrizes via (A + A^T)/2."""

    __slots__ = ("mat",)

    def __init__(self, entries):
        a = _check_square(as_array(entries), "entries")
        self.mat = _freeze((a + a.T) / 2.0)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues sorted descending and the matching orthonormal eigenvectors
    (as columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u, lam = self.eigenvectors, self.eigenvalues
        return (u * lam) @ u.T


def spectral(a) -> SpectralDecomp:
    """Spectral decomposition of a symmetric matrix.

    Parameters
    ----------
    a : SymMatrix or (q, q) array-like
        Matrix to decompose; symmetrized first.

    Returns
    -------
    SpectralDecomp
        Eigenvalues in descending order, eigenvector columns aligned.
    """
    m = _check_square(as_array(a), "a")
    m = (m + m.T) / 2.0
    lam, u = np.linalg.eigh(m)
    order = np.argsort(lam)[::-1]
    return SpectralDecomp(_freeze(lam[order]), _freeze(u[:, order]))


class PsdAtom:
    """A positive semidefinite matrix atom with its trace cached.

    Small negative eigenvalue dust (relative size up to ``PSD_DUST_RTOL``) is
    clipped to zero; anything more negative is rejected.
    """

    __slots__ = ("mat", "trace")

    def __init__(self, entries, _trusted: bool = False):
        a = _check_square(as_array(entries), "entries")
        a = (a + a.T) / 2.0
        if not _trusted:
            a = clip_psd_dust(a)
        self.mat = _freeze(a)
        self.trace = float(np.trace(a))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"PsdAtom(dim={self.dim}, trace={self.trace:.6g})"


def helmert(k: int) -> np.ndarray:
    """The (k-1, k) orthonormal Helmert contrasts: row j (1-based) has ones in
    its first j entries and -j in entry j + 1, scaled to unit length."""
    j = np.arange(1, k)[:, None]
    col = np.arange(k)[None, :]
    return ((col < j) - j * (col == j)) / np.sqrt(j * (j + 1.0))


def _svec(a: np.ndarray) -> np.ndarray:
    """The half-vectorized coordinates of a symmetric matrix, or of each matrix
    of a stack, orthonormal under <A, B> = tr(AB): the diagonal entries first,
    then sqrt(2) A_ij for i < j in row-major order."""
    i, j = np.triu_indices(a.shape[-1], 1)
    return np.concatenate([np.diagonal(a, axis1=-2, axis2=-1), math.sqrt(2.0) * a[..., i, j]], axis=-1)


def _smat(v: np.ndarray, dim: int) -> np.ndarray:
    """The symmetric (dim, dim) matrices of coordinates ``v``: the inverse of :func:`_svec`."""
    i, j = np.triu_indices(dim, 1)
    d = np.arange(dim)
    out = np.empty(v.shape[:-1] + (dim, dim))
    out[..., d, d] = v[..., :dim]
    out[..., i, j] = out[..., j, i] = v[..., dim:] / math.sqrt(2.0)
    return out


def stack_blocks(m: int, per_item: int):
    """(lo, hi) bounds of consecutive blocks of ``m`` items of ``per_item``
    entries each, at most ``_BLOCK_ENTRIES`` entries (and one item at least)
    a block."""
    size = max(1, _BLOCK_ENTRIES // max(per_item, 1))
    return [(lo, min(lo + size, m)) for lo in range(0, m, size)]


def unscreened_blocks(a: np.ndarray, rtol: float):
    """Yield (start, block) for each block of an (m, q, q) stack of symmetric
    matrices in which some M fails the Cholesky screen: M - rtol tr(M) I has
    no Cholesky factor.

    Every M of the other blocks has lambda_min > rtol tr(M) >= rtol
    lambda_max up to a rounding error of order q eps lambda_max, so those
    blocks need no eigen-decomposition for any eigenvalue cut well below
    ``rtol``.  A failing block is yielded whole: the factorization names no
    matrix.
    """
    q = a.shape[-1]
    for lo, hi in stack_blocks(a.shape[0], q * q):
        block = a[lo:hi]
        shift = rtol * np.einsum("mii->m", block)
        try:
            np.linalg.cholesky(block - shift[:, None, None] * np.eye(q))
        except np.linalg.LinAlgError:
            yield lo, block


def cholesky_passes(a: np.ndarray, rtol: float) -> np.ndarray:
    """The mask of the matrices M of an (m, q, q) stack of symmetric matrices
    for which M - rtol tr(M) I has a Cholesky factor, as ``np.linalg.cholesky``
    would find it but per matrix: the factorization runs a column at a time
    over the whole stack, and a matrix fails at its first pivot that is not
    positive (or NaN), without raising.  A passing M has lambda_min > rtol
    lambda_max up to a rounding error of order q eps lambda_max."""
    q = a.shape[-1]
    s = a - (rtol * np.einsum("mii->m", a))[:, None, None] * np.eye(q)
    ok = np.ones(a.shape[0], dtype=bool)
    for j in range(q):
        ok &= s[:, j, j] > 0.0
        # Column j of the factor; a failed matrix takes zeros and stops changing.
        col = np.where(ok[:, None], s[:, j + 1:, j], 0.0) / np.sqrt(np.where(ok, s[:, j, j], 1.0))[:, None]
        s[:, j + 1:, j + 1:] -= col[:, :, None] * col[:, None, :]
    return ok


def clip_psd_dust(a: np.ndarray) -> np.ndarray:
    """Clip tiny negative eigenvalues of a symmetric matrix, or of each matrix
    of an (m, q, q) stack, to zero.

    Raises ``NotPositiveDefiniteError`` if an eigenvalue is more negative than
    ``PSD_DUST_RTOL`` relative to the largest one of its matrix; for a stack
    the message names the index of the first such matrix.  A block of the
    stack whose every M passes the Cholesky screen of
    :func:`unscreened_blocks` at ``_DUST_SCREEN_RTOL`` has no dust and is
    returned as it is; only the other blocks get ``eigvalsh``, and only their
    matrices with negative dust are decomposed a second time and clipped.
    """
    stack = a if a.ndim == 3 else a[None]
    out = stack
    for start, block in unscreened_blocks(stack, _DUST_SCREEN_RTOL):
        lam = np.linalg.eigvalsh(block)
        lo, hi = lam[:, 0], lam[:, -1]
        bad = lo < -PSD_DUST_RTOL * np.maximum(hi, 1e-300)
        if np.any(bad):
            i = np.argmax(bad)
            raise NotPositiveDefiniteError(
                f"matrix{f' {start + i}' if a.ndim == 3 else ''} is not positive semidefinite: "
                f"min eigenvalue {lo[i]:.3e} vs max {hi[i]:.3e}"
            )
        dust = np.flatnonzero(lo < 0.0)
        if dust.size:
            out = stack.copy() if out is stack else out
            lam_full, u = np.linalg.eigh(block[dust])
            out[start + dust] = (u * np.maximum(lam_full, 0.0)[:, None, :]) @ np.swapaxes(u, 1, 2)
    if out is stack:
        return a
    return out if a.ndim == 3 else out[0]


class SpdMatrix:
    """A symmetric positive definite matrix with its log-determinant cached.

    Construction fails with ``NotPositiveDefiniteError`` unless the Cholesky
    factorization succeeds.
    """

    __slots__ = ("mat", "_logdet")

    def __init__(self, entries):
        a = _check_square(as_array(entries), "entries")
        a = (a + a.T) / 2.0
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
        self.mat = _freeze(a)
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        if not np.isfinite(self._logdet):
            raise NotPositiveDefiniteError("log-determinant is not finite")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def logdet(self) -> float:
        return self._logdet

    def solve(self, b) -> np.ndarray:
        """Solve S x = b."""
        return np.linalg.solve(self.mat, b)

    def inv(self) -> np.ndarray:
        """Inverse S^{-1}."""
        return np.linalg.inv(self.mat)

    def sqrt(self) -> np.ndarray:
        """Symmetric square root S^{1/2}."""
        dec = spectral(self.mat)
        return (dec.eigenvectors * np.sqrt(dec.eigenvalues)) @ dec.eigenvectors.T

    def inv_sqrt(self) -> np.ndarray:
        """Symmetric inverse square root S^{-1/2}."""
        dec = spectral(self.mat)
        return (dec.eigenvectors / np.sqrt(dec.eigenvalues)) @ dec.eigenvectors.T

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim}, logdet={self.logdet:.6g})"


def sym_exp(a) -> SpdMatrix:
    """Matrix exponential mapping symmetric matrices onto the SPD cone.

    Satisfies det(sym_exp(A)) = exp(tr A) and inverts ``sym_log``.
    """
    dec = spectral(a)
    if dec.eigenvalues[0] > _EXP_OVERFLOW:
        raise RangeError(
            f"exp of eigenvalue {dec.eigenvalues[0]:.3g} overflows double precision"
        )
    u = dec.eigenvectors
    return SpdMatrix((u * np.exp(dec.eigenvalues)) @ u.T)


def sym_log(s) -> SymMatrix:
    """Matrix logarithm of an SPD matrix, the inverse of ``sym_exp``."""
    m = as_array(s)
    if not isinstance(s, SpdMatrix):
        s = SpdMatrix(m)  # enforces positive definiteness
    dec = spectral(s.mat)
    u = dec.eigenvectors
    return SymMatrix((u * np.log(dec.eigenvalues)) @ u.T)


def solve_trace(s, m) -> float:
    """tr(S^{-1} M) for SPD S and PSD (or symmetric) M."""
    if not isinstance(s, SpdMatrix):
        s = SpdMatrix(s)
    mm = as_array(m)
    if mm.shape[0] != s.dim:
        raise DimensionMismatchError(
            f"dimension mismatch: S is {s.dim}x{s.dim}, M is {mm.shape}"
        )
    return float(np.trace(s.solve(mm)))


def inner(a, b) -> float:
    """Trace inner product <A, B> = tr(A B) of two symmetric matrices."""
    aa, bb = as_array(a), as_array(b)
    if aa.shape != bb.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {aa.shape} vs {bb.shape}"
        )
    return float(np.sum(aa * bb))
