"""Output checks for one CLI job, in plain numpy and independent of the package.

A job passes when its exit code is 0, its status is ``converged`` and every
check that applies to it holds:

* the fixed-point residual ||Psi(S) - S||_F / ||S||_F, recomputed from the
  input data and the emitted matrix, is within the solver tolerance (for
  order-1 fits, the location fit's augmented Gamma and procov);
* det Sigma = 1 for the scale-invariant (Tyler) fits;
* mu and Sigma of ``locscatter`` agree with the emitted Gamma;
* standard errors are finite and positive;
* on the default seed, a fingerprint of the output matches the reference
  values stored next to this file.
"""

from __future__ import annotations

import numpy as np

# The CLI default --tol; residuals are recomputed in another summation
# order, so a rounding allowance far below the tolerance is added.
SOLVER_TOL = 1e-10
ROUNDING = 1e-13
DET_TOL = 1e-9
GAMMA_TOL = 1e-9
# The corner of Gamma is 1 only at the exact minimizer; a fit converged to
# SOLVER_TOL leaves it about 1e-9 away.
CORNER_TOL = 1e-6
REFERENCE_RTOL = 1e-7


def options(job):
    """Subcommand plus the flag values of a job's argv."""
    opts = {}
    args = list(job[1:])
    while args:
        flag = args.pop(0)
        opts[flag] = args.pop(0) if args and not args[0].startswith("--") else True
    return job[0], opts


def _residual(sigma, atoms_or_x, weights, rho_prime, rank_one):
    """Relative fixed-point residual of Psi(S) = sum_i w_i rho'(t_i) M_i."""
    sinv = np.linalg.inv(sigma)
    if rank_one:
        x = atoms_or_x
        t = np.einsum("ni,ij,nj->n", x, sinv, x)
        psi = (x * (weights * rho_prime(t))[:, None]).T @ x
    else:
        t = np.einsum("mij,ji->m", atoms_or_x, sinv)
        psi = np.einsum("m,mij->ij", weights * rho_prime(t), atoms_or_x)
    psi = (psi + psi.T) / 2.0
    return float(np.linalg.norm(psi - sigma) / np.linalg.norm(sigma))


def _rho_prime(estimator, nu, q):
    if estimator == "tyler":
        return lambda t: q / t
    if estimator == "t":
        return lambda t: (nu + q) / (nu + t)
    if estimator == "gaussian":
        return np.ones_like
    raise ValueError(f"no plain-numpy rho' for estimator {estimator!r}")


def _positive_finite(values):
    arr = np.asarray(values, dtype=float)  # None (a non-finite value) becomes nan
    return bool(np.all(np.isfinite(arr)) and np.all(arr > 0))


def check_job(job, code, doc, data):
    """Return the list of failed checks for one job (empty when it passed).

    ``data`` maps dataset names to the arrays written for them: an (n, q)
    matrix for CSV inputs, a (dofs, scatters) pair for procov groups.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if doc is None:
        return problems + ["no JSON output"]
    if doc.get("status") != "converged":
        problems.append(f"status {doc.get('status')}")
        return problems

    sub, opts = options(job)
    source = data[(opts.get("--input") or opts.get("--groups"))[1:]]
    estimator = opts.get("--estimator", "tyler")
    nu = float(opts["--nu"]) if "--nu" in opts else None
    k = int(opts.get("--k", 1))

    if sub == "locscatter":
        gamma = np.asarray(doc["gamma"], dtype=float)
        q = gamma.shape[0] - 1
        y = np.hstack([source, np.ones((source.shape[0], 1))])
        w = np.full(y.shape[0], 1.0 / y.shape[0])
        # Augmented loss: t of order (nu - 1, q + 1).
        resid = _residual(gamma, y, w, _rho_prime("t", nu - 1.0, q + 1), True)
        if resid > SOLVER_TOL + ROUNDING:
            problems.append(f"augmented fixed-point residual {resid:.3e}")
        c, b, a = gamma[-1, -1], gamma[:-1, -1], gamma[:-1, :-1]
        mu = np.asarray(doc["mu"], dtype=float)
        sigma = np.asarray(doc["sigma"], dtype=float)
        if abs(c - 1.0) > CORNER_TOL:
            problems.append(f"Gamma corner {c:.12g} is not 1")
        if np.linalg.norm(mu - b / c) > GAMMA_TOL * (1.0 + np.linalg.norm(mu)):
            problems.append("mu disagrees with Gamma")
        expect = a / c - np.outer(mu, mu)
        if np.linalg.norm(sigma - expect) > GAMMA_TOL * np.linalg.norm(sigma):
            problems.append("Sigma disagrees with Gamma")
    else:
        sigma = np.asarray(doc["sigma"], dtype=float)
        q = sigma.shape[0]
        if sub == "procov":
            dofs, scatters = source
            resid = _residual(sigma, scatters, dofs / dofs.sum(), _rho_prime("tyler", None, q), False)
        elif k == 1:
            w = np.full(source.shape[0], 1.0 / source.shape[0])
            resid = _residual(sigma, source, w, _rho_prime(estimator, nu, q), True)
        else:
            resid = None
        if resid is not None and resid > SOLVER_TOL + ROUNDING:
            problems.append(f"fixed-point residual {resid:.3e}")
        if sub == "procov" or estimator == "tyler":
            logdet = np.linalg.slogdet(sigma)[1]
            if abs(logdet) > DET_TOL:
                problems.append(f"log det Sigma = {logdet:.3e}, expected 0")

    if sub == "influence" or "--se" in opts:
        se = doc.get("se") or {}
        for key in ("sigma", "mu") if sub == "locscatter" else ("sigma",):
            if key not in se or not _positive_finite(se[key]):
                problems.append(f"standard errors of {key} are not finite and positive")
    return problems


def fingerprint(doc):
    """Compact summary of a job's output for the reference comparison."""
    sigma = np.asarray(doc["sigma"], dtype=float)
    out = {
        "status": doc["status"],
        "iterations": doc["iterations"],
        "verdict": (doc.get("existence") or {}).get("verdict"),
        "method": (doc.get("existence") or {}).get("method"),
        "sigma_diag": np.diag(sigma).tolist(),
        "sigma_row0": sigma[0].tolist(),
    }
    if doc.get("mu") is not None:
        out["mu"] = list(doc["mu"])
    if doc.get("se"):
        out["se_diag"] = np.diag(np.asarray(doc["se"]["sigma"], dtype=float)).tolist()
    return out


def compare_fingerprint(got, ref):
    """Differences between a fingerprint and its reference (empty if equal)."""
    problems = []
    if set(got) != set(ref):
        return [f"fields {sorted(got)} differ from reference {sorted(ref)}"]
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, list):
            a, b = np.asarray(have, dtype=float), np.asarray(want, dtype=float)
            if a.shape != b.shape or np.linalg.norm(a - b) > REFERENCE_RTOL * np.linalg.norm(b):
                problems.append(f"{key} differs from reference")
        elif have != want:
            problems.append(f"{key} is {have!r}, reference {want!r}")
    return problems
