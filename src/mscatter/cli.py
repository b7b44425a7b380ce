"""Command-line front end: CSV in, JSON estimates and diagnostics out.

Subcommands
-----------
scatter     fit a scatter matrix (tyler | t | weibull | gaussian)
locscatter  fit joint location and scatter for the t model (nu >= 1)
procov      fit proportional covariance matrices from Wishart groups
influence   scatter fit with influence-function standard errors
check       existence report and fixed-point residual of a given sigma

Exit codes: 0 converged, 2 not converged (existence violated, diverged or
iteration limit), 3 input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .asymptotics import acov_scatter, location_influence
from .distribution import WishartGroup, build_kstat, check_existence, from_observations
from .errors import MScatterError, NotPositiveDefiniteError
from .location import augment, estimate_location_scatter
from .rho import gaussian, t_dist, tyler, weibull
from .solver import STATUS_CONVERGED, SolverConfig, _measure, fixed_point_solve, solve_procov
from .symmat import PsdAtom, SpdMatrix, clip_psd_dust

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INPUT = 3


class InputError(MScatterError):
    """CLI-level input problem; maps to exit code 3."""


def read_csv(path):
    """Read a numeric CSV: rows are observations, columns are variables.

    A single header row is auto-detected: a first row none of whose cells
    is a number.  Blank lines are skipped.  Ragged rows and non-numeric
    cells anywhere else are errors that name their row by its line in the
    file.

    Returns (matrix, column_names) with names None when there is no header.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]  # blank lines kept as "" for the line numbers
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    first = next((i for i, text in enumerate(lines) if text), None)
    if first is None:
        raise InputError(f"{path} is empty")

    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    names = None
    cells = [c.strip() for c in lines[first].split(",")]
    if all(number(c) is None for c in cells):
        names, first = cells, first + 1
        if not any(lines[first:]):
            raise InputError(f"{path} has a header but no data rows")
    try:  # np.loadtxt skips the empty lines
        return np.loadtxt(lines[first:], delimiter=",", comments=None, ndmin=2), names
    except ValueError:
        pass  # parse row by row to word the error

    rows = []
    for num, text in enumerate(lines[first:], first + 1):
        if not text:
            continue
        row = [number(c.strip()) for c in text.split(",")]
        if None in row:
            raise InputError(f"{path}: non-numeric cell in row {num}")
        if rows and len(row) != len(rows[0]):
            raise InputError(f"{path}: ragged row {num} has {len(row)} cells, expected {len(rows[0])}")
        rows.append(row)
    return np.asarray(rows, dtype=float), names


def _scatter_array(obj):
    """``json`` object hook: a group's scatter becomes an array as soon as the
    group is parsed, so the float objects of all groups never coexist.  A
    scatter that does not convert is left for ``read_groups`` to report."""
    scatter = obj.get("scatter")
    if isinstance(scatter, list):
        try:
            obj["scatter"] = np.asarray(scatter, dtype=float)
        except (TypeError, ValueError):
            pass
    return obj


def read_groups(path):
    """Read Wishart groups from JSON: an array of {"dof": int, "scatter": [[..]]}.

    Scatter matrices may carry eigenvalue dust down to ``PSD_DUST_RTOL``
    (1e-10) relative to the largest eigenvalue; it is clipped.  Anything more
    negative, a dof below one, or mixed dimensions are errors.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_hook=_scatter_array)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, list) or not doc:
        raise InputError(f"{path} must hold a non-empty JSON array of groups")

    mats, dofs, dim = [], [], None
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "dof" not in entry or "scatter" not in entry:
            raise InputError(f"{path}: group {i} needs 'dof' and 'scatter' fields")
        dof = entry["dof"]
        if not isinstance(dof, int) or dof < 1:
            raise InputError(f"{path}: group {i} has invalid dof {dof!r}")
        try:
            s = np.asarray(entry["scatter"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: group {i} scatter is not a numeric matrix") from exc
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise InputError(f"{path}: group {i} scatter is not square")
        if dim is None:
            dim = s.shape[0]
        elif s.shape[0] != dim:
            raise InputError(f"{path}: group {i} has dimension {s.shape[0]}, expected {dim}")
        if not np.all(np.isfinite(s)):
            raise InputError(f"{path}: group {i} scatter has non-finite entries")
        mats.append(s)
        dofs.append(dof)
    stack = np.stack(mats)
    try:
        stack = clip_psd_dust((stack + np.swapaxes(stack, 1, 2)) / 2.0)
    except NotPositiveDefiniteError as exc:
        raise InputError(f"{path}: group scatters: {exc}") from exc
    return [WishartGroup(scatter=PsdAtom(s, _trusted=True), dof=d) for s, d in zip(stack, dofs)]


# The shape parameter each estimator takes; the others take none.
_SHAPE_FLAG = {"t": "nu", "weibull": "gamma"}


def _make_rho(args, q):
    est = args.estimator
    wanted = _SHAPE_FLAG.get(est)
    for name in ("nu", "gamma"):
        if name != wanted and getattr(args, name) is not None:
            raise InputError(f"--{name} is not a {est} parameter")
    if wanted and getattr(args, wanted) is None:
        raise InputError(f"the {est} estimator requires --{wanted}")
    if est == "t":
        return t_dist(args.nu, q)
    if est == "weibull":
        return weibull(args.gamma)
    return tyler(q) if est == "tyler" else gaussian()


def _solver_config(args):
    return SolverConfig(
        tol_fixed_point=args.tol,
        tol_gradient=args.tol_gradient,
        max_iter=args.max_iter,
    )


def _existence_json(report):
    if report is None:
        return None
    return {
        "verdict": report.verdict,
        "method": report.method,
        "witnesses": [
            {
                "dim": w.subspace_dim,
                "mass": w.mass,
                "threshold": w.threshold,
                "basis": w.basis.tolist(),
            }
            for w in report.witnesses
        ],
    }


def _estimate_json(est, q):
    return {
        "dim": q,
        "status": est.status,
        "iterations": est.iterations,
        "criterion": est.criterion,
        "gradient_norm": est.gradient_norm,
        "fixed_point_residual": est.fixed_point_residual,
        "sigma": est.sigma.mat.tolist(),
        "existence": _existence_json(est.existence),
    }


def _subset_settings(args):
    """The subset cap and seed, which only order k >= 2 applies."""
    if args.k == 1 and (args.cap is not None or args.seed is not None):
        raise InputError("--cap and --seed apply only with --k >= 2")
    return 200_000 if args.cap is None else args.cap, args.seed or 0


def _build_q(x, k, cap, seed):
    if k == 1:
        return from_observations(x)
    return build_kstat(x, k, cap=cap, seed=seed)


def _sanitize(value):
    """Replace non-finite floats with None so the emitted JSON stays strict."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_sanitize(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _emit(doc, out, csv=False):
    """Write the document as JSON, or as CSV rows (mu first, then sigma,
    skipping whichever a fit that did not converge lacks)."""
    if csv:
        rows = [doc.get("mu")] + (doc["sigma"] or [])
        text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows if row is not None)
    else:
        try:
            text = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError:  # a non-finite float: walk the document once more
            text = json.dumps(_sanitize(doc), indent=2, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_scatter(args, with_se):
    x, _ = read_csv(args.input)
    q = x.shape[1]
    f = _make_rho(args, q)
    cap, seed = _subset_settings(args)
    qdist = _build_q(x, args.k, cap, seed)
    est = fixed_point_solve(qdist, f, _solver_config(args))
    doc = _estimate_json(est, q)
    doc["subcommand"] = "influence" if with_se else "scatter"
    doc["estimator"] = args.estimator
    doc["n"] = int(x.shape[0])
    doc["k"] = args.k
    if (with_se or args.se) and est.status == STATUS_CONVERGED:
        rep = acov_scatter(x, est, f, k=args.k, inner_cap=cap, seed=seed)
        doc["se"] = {"sigma": rep.se_sigma.tolist()}
    _emit(doc, args.out, args.output == "csv")
    return EXIT_OK if est.status == STATUS_CONVERGED else EXIT_NOT_CONVERGED


def _cmd_locscatter(args):
    x, _ = read_csv(args.input)
    q = x.shape[1]
    if not args.nu >= 1:
        raise InputError("locscatter requires --nu >= 1")
    est = estimate_location_scatter(x, args.nu, _solver_config(args))
    doc = _estimate_json(est.inner, q)
    doc.update(
        subcommand="locscatter",
        n=int(x.shape[0]),
        nu=args.nu,
        gamma=est.gamma.mat.tolist(),
        mu=est.mu.tolist() if est.mu is not None else None,
        sigma=est.sigma.mat.tolist() if est.sigma is not None else None,
    )
    if args.se and est.status == STATUS_CONVERGED:
        rep = location_influence(x, args.nu, est)
        doc["se"] = {"sigma": rep.se_sigma.tolist(), "mu": rep.se_mu.tolist()}
    _emit(doc, args.out, args.output == "csv")
    return EXIT_OK if est.status == STATUS_CONVERGED else EXIT_NOT_CONVERGED


def _cmd_procov(args):
    groups = read_groups(args.groups)
    fit = solve_procov(groups, _solver_config(args))
    doc = _estimate_json(fit.estimate, fit.sigma.dim)
    doc["subcommand"] = "procov"
    doc["sigma"] = fit.sigma.mat.tolist()
    doc["scales"] = fit.scales.tolist()
    doc["stationarity_residual"] = fit.stationarity_residual
    _emit(doc, args.out, args.output == "csv")
    return EXIT_OK if fit.status == STATUS_CONVERGED else EXIT_NOT_CONVERGED


def _cmd_check(args):
    if not args.tol > 0:
        raise InputError(f"--tol must be positive, got {args.tol}")
    x, _ = read_csv(args.input)
    q = x.shape[1]
    f = _make_rho(args, q)
    cap, seed = _subset_settings(args)
    if args.locscatter:
        if args.estimator != "t" or not args.nu >= 1:
            raise InputError("--locscatter checks need --estimator t with --nu >= 1")
        if args.k != 1:
            raise InputError("--locscatter checks the order-one location problem; --k must be 1")
        # The joint fit is the scatter fit of the augmented problem, whose
        # fitted matrix is the document's gamma.
        prob = augment(x, args.nu)
        qdist, f, key = prob.q_aug, prob.augmented_rho, "gamma"
    else:
        qdist, key = _build_q(x, args.k, cap, seed), "sigma"
    report = check_existence(qdist, f)
    doc = {
        "subcommand": "check",
        "dim": q,
        "n": int(x.shape[0]),
        "estimator": args.estimator,
        "existence": _existence_json(report),
    }
    ok = report.verdict != "violated"
    if args.sigma:
        try:
            with open(args.sigma, "r", encoding="utf-8") as fh:
                prev = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read sigma document {args.sigma}: {exc}") from exc
        try:
            sig_rows = np.asarray(prev[key] if isinstance(prev, dict) else prev, dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"sigma document {args.sigma} holds no numeric {key!r} matrix") from exc
        crit, resid, _ = _measure(SpdMatrix(sig_rows), qdist, f)
        doc["fixed_point_residual"], doc["criterion"] = resid, crit
        ok = ok and resid <= args.tol
    _emit(doc, args.out)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built on the first call and shared after it."""
    p = argparse.ArgumentParser(
        prog="mscatter",
        description="M-functionals of multivariate scatter and location",
    )
    p.add_argument("--version", action="version", version=f"mscatter {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def estimator_flags(sp):
        sp.add_argument("--estimator", default="tyler",
                        choices=["tyler", "t", "weibull", "gaussian"])
        sp.add_argument("--nu", type=float, default=None, help="t degrees of freedom")
        sp.add_argument("--gamma", type=float, default=None, help="weibull exponent")
        sp.add_argument("--k", type=int, default=1,
                        help="symmetrization order (k >= 2 uses k-subset sample covariances)")
        sp.add_argument("--cap", type=int, default=None,
                        help="k >= 2: most k-subsets and influence subsets (default 200000)")
        sp.add_argument("--seed", type=int, default=None,
                        help="k >= 2: seed of the subset sample (default 0)")

    def fit_flags(sp):
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--tol-gradient", type=float, default=1e-9)
        sp.add_argument("--max-iter", type=int, default=500)
        sp.add_argument("--output", choices=["json", "csv"], default="json")
        sp.add_argument("--out", default=None, help="write output here instead of stdout")

    sp = sub.add_parser("scatter", help="fit a scatter matrix")
    sp.add_argument("--input", required=True)
    sp.add_argument("--se", action="store_true", help="report influence-function standard errors")
    estimator_flags(sp)
    fit_flags(sp)

    sp = sub.add_parser("influence", help="scatter fit with standard errors")
    sp.add_argument("--input", required=True)
    estimator_flags(sp)
    fit_flags(sp)

    sp = sub.add_parser("locscatter", help="fit joint location and scatter (t model)")
    sp.add_argument("--input", required=True)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--se", action="store_true")
    fit_flags(sp)

    sp = sub.add_parser("procov", help="fit proportional covariance matrices")
    sp.add_argument("--groups", required=True, help="JSON file of Wishart groups")
    fit_flags(sp)

    sp = sub.add_parser("check", help="existence report and fixed-point residual (JSON)")
    sp.add_argument("--input", required=True)
    sp.add_argument("--sigma", default=None, help="JSON document holding a fitted sigma")
    sp.add_argument("--locscatter", action="store_true",
                    help="check the location-scatter condition instead (t estimator, k = 1)")
    estimator_flags(sp)
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="largest fixed-point residual of --sigma that passes")
    sp.add_argument("--out", default=None, help="write output here instead of stdout")

    return p


def run(argv=None) -> int:
    """Parse arguments, run the requested command, return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; remap to the input-error code.
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        if args.subcommand == "scatter":
            return _cmd_scatter(args, with_se=False)
        if args.subcommand == "influence":
            return _cmd_scatter(args, with_se=True)
        if args.subcommand == "locscatter":
            return _cmd_locscatter(args)
        if args.subcommand == "procov":
            return _cmd_procov(args)
        if args.subcommand == "check":
            return _cmd_check(args)
        raise InputError(f"unknown subcommand {args.subcommand!r}")
    except MScatterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
