"""Loss-function families for M-functionals of scatter.

A loss ``rho`` enters the criterion only through differences
``rho(tr(S^-1 M)) - rho(tr M)``, its derivative ``rho'`` (the atom weights of
the fixed-point map) and ``psi(s) = s rho'(s)``.  The standing assumptions are
a continuous, strictly positive, non-increasing ``rho'`` together with a
non-decreasing ``psi``; families are tagged with the regime they satisfy:

* ``case0``      the scale-invariant log loss (Tyler), psi constant equal to q;
* ``case1``      psi strictly increasing with psi(0) = 0, psi(inf) in (q, inf];
* ``case1prime`` additionally twice differentiable with rho' > 0 >= rho'' and
  psi' > 0, psi(inf) finite (multivariate t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvalidInputError, UnsupportedOperationError

CASE0 = "case0"
CASE1 = "case1"
CASE1_PRIME = "case1prime"


@dataclass(frozen=True)
class RhoFunction:
    """A loss family with derivatives and case classification.

    Use the factory functions :func:`tyler`, :func:`t_dist`, :func:`weibull`,
    :func:`gaussian` and :func:`custom`; do not construct directly.
    """

    kind: str
    case_tag: str
    psi_infinity: float
    dim: Optional[int]
    _rho: Callable = field(repr=False)
    _rho_prime: Callable = field(repr=False)
    _rho_second: Optional[Callable] = field(repr=False, default=None)
    params: tuple = ()

    # -- evaluation ---------------------------------------------------------

    def _domain(self, s) -> np.ndarray:
        """``s`` as a float array, checked against the domain of the loss."""
        s = np.asarray(s, dtype=float)
        if (s < 0).any():
            raise DomainError(f"loss argument must be nonnegative, got {s}")
        if self.case_tag == CASE0 and (s == 0).any():
            raise DomainError("the scale-invariant log loss is undefined at s = 0")
        return s

    def _call(self, fn, s):
        """Check the domain, evaluate ``fn``; scalar in, scalar out."""
        s = self._domain(s)
        out = fn(s)
        return float(out) if s.ndim == 0 else out

    def _rho_and_prime(self, s):
        """(rho(s), rho'(s)) for an array ``s`` whose domain is checked once."""
        s = self._domain(s)
        return self._rho(s), self._rho_prime(s)

    def rho(self, s):
        """Evaluate rho(s); scalar in, scalar out."""
        return self._call(self._rho, s)

    def rho_prime(self, s):
        """Evaluate rho'(s)."""
        return self._call(self._rho_prime, s)

    def psi(self, s):
        """Evaluate psi(s) = s rho'(s)."""
        return self._call(lambda v: v * self._rho_prime(v), s)

    def rho_second(self, s):
        """Evaluate rho''(s); unavailable for families without one."""
        if self._rho_second is None:
            raise UnsupportedOperationError(
                f"{self.kind} loss does not provide a second derivative"
            )
        return self._call(self._rho_second, s)

    @property
    def has_second(self) -> bool:
        return self._rho_second is not None

    def __repr__(self):
        extra = f", params={self.params}" if self.params else ""
        return f"RhoFunction({self.kind}, {self.case_tag}, dim={self.dim}{extra})"


# -- factories ---------------------------------------------------------------


def tyler(q: int) -> RhoFunction:
    """Scale-invariant log loss rho(s) = q log s (Case 0); psi identically q."""
    if q < 1:
        raise InvalidInputError("dimension q must be >= 1")
    q = int(q)
    return RhoFunction(
        kind="tyler",
        case_tag=CASE0,
        psi_infinity=float(q),
        dim=q,
        _rho=lambda s: q * np.log(s),
        _rho_prime=lambda s: q / s,
        _rho_second=lambda s: -(q / s) / s,
        params=(q,),
    )


def t_dist(nu: float, q: int) -> RhoFunction:
    """Multivariate-t loss rho(s) = (nu + q) log(nu + s) for finite nu > 0 (Case 1').

    psi(s) = (nu + q) s / (nu + s) is bounded with psi(inf) = nu + q.
    """
    if not 0 < nu < math.inf:
        raise InvalidInputError(f"t loss requires finite nu > 0, got {nu} "
                                "(use tyler for nu = 0, gaussian for nu = inf)")
    if q < 1:
        raise InvalidInputError("dimension q must be >= 1")
    nu, q = float(nu), int(q)
    c = nu + q
    return RhoFunction(
        kind="t",
        case_tag=CASE1_PRIME,
        psi_infinity=c,
        dim=q,
        _rho=lambda s: c * np.log(nu + s),
        _rho_prime=lambda s: c / (nu + s),
        _rho_second=lambda s: -c / (nu + s) ** 2,
        params=(nu, q),
    )


def weibull(gamma: float) -> RhoFunction:
    """Weibull-type loss rho(s) = s^gamma for gamma in (0, 1) (Case 1)."""
    if not 0 < gamma < 1:
        raise InvalidInputError(f"weibull exponent must lie in (0, 1), got {gamma}")
    gamma = float(gamma)

    def second(s):
        s = np.asarray(s, dtype=float)
        if np.any(s == 0):
            raise DomainError("weibull rho'' is unbounded at s = 0")
        return gamma * (gamma - 1.0) * s ** (gamma - 2.0)

    return RhoFunction(
        kind="weibull",
        case_tag=CASE1,
        psi_infinity=math.inf,
        dim=None,
        _rho=lambda s: s**gamma,
        _rho_prime=lambda s: gamma * s ** (gamma - 1.0),
        _rho_second=second,
        params=(gamma,),
    )


def gaussian() -> RhoFunction:
    """Gaussian loss rho(s) = s (Case 1 with unbounded psi).

    The fixed point is the plain weighted mean of the atoms, which makes this
    family a closed-form oracle for solver tests.
    """
    return RhoFunction(
        kind="gaussian",
        case_tag=CASE1,
        psi_infinity=math.inf,
        dim=None,
        _rho=lambda s: np.asarray(s, dtype=float),
        _rho_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        _rho_second=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )


def custom(
    rho: Callable,
    rho_prime: Callable,
    rho_second: Optional[Callable] = None,
    psi_infinity: float = math.inf,
    case_tag: str = CASE1,
    dim: Optional[int] = None,
) -> RhoFunction:
    """Wrap user-supplied callbacks into a loss family.

    Callbacks must be vectorized over numpy arrays; psi(s) = s rho'(s)
    follows from ``rho_prime``.  Custom families must pass :func:`validate`
    before the solver accepts them.
    """
    if case_tag not in (CASE0, CASE1, CASE1_PRIME):
        raise InvalidInputError(f"unknown case tag {case_tag!r}")
    return RhoFunction(
        kind="custom",
        case_tag=case_tag,
        psi_infinity=float(psi_infinity),
        dim=dim,
        _rho=rho,
        _rho_prime=rho_prime,
        _rho_second=rho_second,
    )


# -- validation and gap bounds ------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Verdicts of the standing-assumption checks on a log-spaced grid."""

    passed: bool
    failures: tuple
    grid: np.ndarray

    def __repr__(self):
        status = "pass" if self.passed else "fail: " + "; ".join(self.failures)
        return f"ValidationReport({status}, {len(self.grid)} grid points)"


def validate(f: RhoFunction, grid_size: int = 64, s_max: float = 1e6) -> ValidationReport:
    """Check the standing assumptions on ``f`` over a log-spaced grid.

    Verifies rho' > 0, rho' non-increasing and psi non-decreasing on
    ``grid_size`` points in (0, s_max].  Case 1' families are additionally
    required to have rho'' <= 0 and psi' > 0 (psi strictly increasing,
    checked by central differences).
    """
    if grid_size < 16:
        raise InvalidInputError("grid_size must be at least 16")
    grid = np.logspace(np.log10(s_max) - 9.0, np.log10(s_max), grid_size)
    failures = []

    rp = np.asarray(f.rho_prime(grid), dtype=float)
    ps = np.asarray(f.psi(grid), dtype=float)
    slack = 1e-9 * (1.0 + np.abs(rp[:-1]))
    if np.any(rp <= 0):
        failures.append("rho' is not strictly positive on the grid")
    if np.any(np.diff(rp) > slack):
        failures.append("rho' is not non-increasing on the grid")
    if np.any(np.diff(ps) < -1e-9 * (1.0 + np.abs(ps[:-1]))):
        failures.append("psi is not non-decreasing on the grid")

    if f.case_tag == CASE1_PRIME:
        if not f.has_second:
            failures.append("case 1' requires a second derivative")
        else:
            rs = np.asarray(f.rho_second(grid), dtype=float)
            if np.any(rs > 1e-12 * (1.0 + np.abs(rs))):
                failures.append("rho'' is not <= 0 on the grid")
        h = grid * 1e-5
        psi_slope = (np.asarray(f.psi(grid + h)) - np.asarray(f.psi(grid - h))) / (2 * h)
        if np.any(psi_slope <= 0):
            failures.append("psi' is not strictly positive on the grid")
        if not math.isfinite(f.psi_infinity):
            failures.append("case 1' requires a finite psi(inf)")

    return ValidationReport(passed=not failures, failures=tuple(failures), grid=grid)


def rho_gap_bounds(f: RhoFunction, a: float, lam: float):
    """Bracket rho(lam * a) - rho(a) by (psi(a) log lam, psi(a) (lam - 1))."""
    if not (a > 0 and lam > 0):
        raise DomainError("gap bounds require a > 0 and lambda > 0")
    pa = f.psi(a)
    return pa * math.log(lam), pa * (lam - 1.0)
