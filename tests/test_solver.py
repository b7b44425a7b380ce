import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from mscatter import (
    DomainError,
    InvalidInputError,
    MatrixDistribution,
    PsdAtom,
    RangeError,
    SolverConfig,
    SpdMatrix,
    UnsupportedOperationError,
    WishartGroup,
    check_existence,
    criterion,
    custom,
    directional_scan,
    estimate_location_scatter,
    fixed_point_solve,
    from_observations,
    from_wishart_groups,
    gaussian,
    gradient,
    hessian,
    mvn,
    psi_map,
    solve_procov,
    t_dist,
    transform,
    tyler,
    validate,
    weibull,
    wishart,
)
from mscatter import build_kstat, distribution, solver, symmat
from mscatter.rho import CASE0, CASE1, CASE1_PRIME
from mscatter.samplers import SeededStream
from mscatter.distribution import ExistenceReport, _frame, _to_data, span_witness
from mscatter.solver import (
    _COND_LIMIT,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_EXISTENCE,
    STATUS_MAX_ITER,
    _check_compat,
    _congruence,
    _estimate,
    _first_term_pattern,
    _frobenius,
    _off_zero,
    _start,
)
from mscatter.symmat import _svec, helmert


def three_point_fixture():
    """Unit directions e1, e2, (1,1)/sqrt(2): every line carries mass 1/3."""
    return np.array([[1.0, 0.0], [0.0, 1.0], [1.0 / math.sqrt(2), 1.0 / math.sqrt(2)]])


def random_q(rng, n, q):
    return from_observations(rng.standard_normal((n, q)))


class TestCriterion:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        q = random_q(rng, 10, 3)
        for f in (tyler(3), t_dist(2.0, 3), weibull(0.5), gaussian()):
            assert criterion(np.eye(3), q, f) == pytest.approx(0.0, abs=1e-14)

    def test_case0_scale_invariance(self):
        rng = np.random.default_rng(1)
        q = random_q(rng, 12, 3)
        s = SpdMatrix(np.diag([2.0, 1.0, 0.5]) + 0.2)
        a = criterion(s, q, tyler(3))
        b = criterion(SpdMatrix(5.0 * s.mat), q, tyler(3))
        assert abs(a - b) <= 1e-10

    def test_gaussian_hand_value(self):
        q = MatrixDistribution(np.stack([np.diag([2.0, 1.0])]))
        s = np.diag([2.0, 1.0])
        # tr(S^-1 M) = 2, tr M = 3, log det S = log 2.
        assert criterion(s, q, gaussian()) == pytest.approx(-1.0 + math.log(2.0))

    def test_case0_rejects_zero_atoms(self):
        q = from_observations(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DomainError):
            criterion(np.eye(2), q, tyler(2))


class TestPsiMap:
    def test_gaussian_independent_of_s(self):
        rng = np.random.default_rng(2)
        q = random_q(rng, 8, 3)
        a = psi_map(np.eye(3), q, gaussian()).mat
        b = psi_map(np.diag([4.0, 1.0, 0.25]), q, gaussian()).mat
        assert np.allclose(a, b)
        assert np.allclose(a, q.mean_atom())

    def test_t_single_atom_identity(self):
        q = MatrixDistribution(np.stack([np.eye(2)]))
        assert np.allclose(psi_map(np.eye(2), q, t_dist(1.0, 2)).mat, np.eye(2))

    def test_tyler_three_point_hand_sum(self):
        q = from_observations(three_point_fixture())
        got = psi_map(np.eye(2), q, tyler(2)).mat
        v = np.array([1.0, 1.0]) / math.sqrt(2)
        expected = (
            2.0 * np.outer([1, 0], [1, 0])
            + 2.0 * np.outer([0, 1], [0, 1])
            + 2.0 * np.outer(v, v)
        ) / 3.0
        assert np.allclose(got, expected)
        assert np.allclose(got, [[1.0, 1.0 / 3.0], [1.0 / 3.0, 1.0]])


class TestGradient:
    def test_gaussian_hand_value(self):
        q = MatrixDistribution(np.stack([np.eye(2)]))
        g = gradient(np.diag([4.0, 1.0]), q, gaussian()).mat
        assert np.allclose(g, np.diag([0.75, 0.0]))

    def test_zero_at_fixed_point(self):
        rng = np.random.default_rng(3)
        q = random_q(rng, 25, 3)
        est = fixed_point_solve(q, t_dist(3.0, 3), SolverConfig(tol_fixed_point=1e-12))
        g = gradient(est.sigma, q, t_dist(3.0, 3)).mat
        assert np.linalg.norm(g) <= 1e-9

    @pytest.mark.parametrize("fname", ["tyler", "t", "weibull", "gaussian"])
    def test_matches_finite_difference(self, fname):
        f = {"tyler": tyler(3), "t": t_dist(2.0, 3), "weibull": weibull(0.5),
             "gaussian": gaussian()}[fname]
        rng = np.random.default_rng(4)
        q = random_q(rng, 20, 3)
        s = SpdMatrix(np.diag([1.5, 1.0, 0.7]) + 0.1)
        b = s.sqrt()
        g = gradient(s, q, f).mat
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            a = (a + a.T) / 2.0
            h = 1e-5
            lam, u = np.linalg.eigh(a)
            ep = (u * np.exp(h * lam)) @ u.T
            em = (u * np.exp(-h * lam)) @ u.T
            fd = (criterion(b @ ep @ b.T, q, f) - criterion(b @ em @ b.T, q, f)) / (2 * h)
            assert abs(fd - np.sum(a * g)) <= 1e-6 * (1.0 + abs(fd))


class TestFixedPointSolve:
    def test_gaussian_one_step(self):
        rng = np.random.default_rng(5)
        q = random_q(rng, 30, 3)
        est = fixed_point_solve(q, gaussian())
        assert est.converged
        assert est.iterations <= 2
        assert np.allclose(est.sigma.mat, q.mean_atom(), atol=1e-14)

    def test_t_single_atom_unit_fixed_point(self):
        q = MatrixDistribution(np.stack([np.eye(2)]))
        est = fixed_point_solve(q, t_dist(1.0, 2))
        assert est.converged
        assert np.allclose(est.sigma.mat, np.eye(2), atol=1e-10)

    def test_two_point_tyler_existence_violated(self):
        q = from_observations(np.eye(2))
        est = fixed_point_solve(q, tyler(2))
        assert est.status == "existence_violated"
        assert est.existence.verdict == "violated"

    def test_violated_start_reports_its_own_diagnostics(self):
        # The identity start is an exact fixed point of the two-point
        # problem, yet no unique minimizer exists: the fit must still stop
        # as violated, reporting the start as measured.
        est = fixed_point_solve(from_observations(np.eye(2)), tyler(2))
        assert est.status == "existence_violated"
        assert est.iterations == 0
        assert len(est.descent_log) == 1
        assert est.fixed_point_residual == 0.0
        assert est.gradient_norm == 0.0

    def test_violated_start_residual_matches_psi_map(self):
        # 8 of 10 rows in the plane x3 = 0: plane mass 0.8 >= 2/3.
        rng = np.random.default_rng(0)
        plane = np.column_stack([rng.standard_normal((8, 2)), np.zeros(8)])
        q = from_observations(np.vstack([plane, rng.standard_normal((2, 3))]))
        est = fixed_point_solve(q, tyler(3))
        assert est.status == "existence_violated"
        assert est.iterations == 0
        s0 = est.sigma.mat
        resid = np.linalg.norm(psi_map(est.sigma, q, tyler(3)).mat - s0) / np.linalg.norm(s0)
        assert est.fixed_point_residual == pytest.approx(resid, rel=1e-12)
        assert est.gradient_norm == pytest.approx(
            np.linalg.norm(gradient(est.sigma, q, tyler(3)).mat), rel=1e-12
        )
        # Psi of the start is singular for the Gaussian loss on planar rows;
        # the diagnostics are measured all the same.
        q = from_observations(plane)
        est = fixed_point_solve(q, gaussian())
        assert est.status == "existence_violated"
        assert math.isfinite(est.fixed_point_residual) and math.isfinite(est.gradient_norm)
        assert np.linalg.norm(gradient(est.sigma, q, gaussian()).mat) == pytest.approx(
            est.gradient_norm, rel=1e-12)

    @pytest.mark.parametrize("f, k", [
        (tyler(3), 1), (t_dist(2.0, 3), 1), (gaussian(), 1), (tyler(3), 2),
    ], ids=["tyler", "t", "gaussian", "tyler_k2"])
    def test_gradient_norm_after_steps_matches_gradient(self, f, k):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((20, 3)) * [1.0, 3.0, 0.5]
        q = from_observations(x) if k == 1 else build_kstat(x, 2)
        est = fixed_point_solve(q, f, SolverConfig(max_iter=3))
        assert est.gradient_norm == pytest.approx(
            np.linalg.norm(gradient(est.sigma, q, f).mat), rel=1e-12
        )

    def test_three_point_tyler_converges_det_one(self):
        q = from_observations(three_point_fixture())
        est = fixed_point_solve(q, tyler(2), SolverConfig(tol_fixed_point=1e-12))
        assert est.converged
        assert math.exp(est.sigma.logdet) == pytest.approx(1.0, abs=1e-9)
        psi = psi_map(est.sigma, q, tyler(2)).mat
        resid = np.linalg.norm(psi - est.sigma.mat) / np.linalg.norm(est.sigma.mat)
        assert resid <= 1e-9

    def test_descent_log_monotone(self):
        rng = np.random.default_rng(6)
        for f in (tyler(3), t_dist(1.0, 3), weibull(0.5)):
            q = random_q(rng, 40, 3)
            est = fixed_point_solve(q, f)
            assert est.converged
            assert np.all(np.diff(est.descent_log) <= 1e-12)

    def test_descent_log_matches_criterion(self):
        rng = np.random.default_rng(7)
        q = random_q(rng, 15, 2)
        f = t_dist(2.0, 2)
        est = fixed_point_solve(q, f)
        assert est.descent_log[0] == pytest.approx(criterion(np.eye(2), q, f), abs=1e-12)
        assert est.descent_log[-1] == pytest.approx(criterion(est.sigma, q, f), abs=1e-12)

    def test_max_iter_status(self):
        rng = np.random.default_rng(8)
        q = random_q(rng, 30, 3)
        est = fixed_point_solve(q, t_dist(1.0, 3), SolverConfig(max_iter=2))
        assert est.status == "max_iter"
        assert est.iterations == 2

    def test_divergence_detected(self):
        # 9 of 10 directions inside the e1-e2 plane: plane mass 0.9 is past
        # the 2/3 threshold, but a tiny budget leaves the check undecided, so
        # the solver must catch the blowup itself and the plane its iterates
        # collapse onto is the witness.
        ang = np.linspace(0.1, 1.4, 9)
        pts = np.stack([np.cos(ang), np.sin(ang), np.zeros(9)], axis=1)
        x = np.vstack([pts, [[0.3, 0.2, 1.0]]])
        q = MatrixDistribution(from_observations(x).atoms)
        est = fixed_point_solve(
            q, tyler(3), SolverConfig(max_iter=5000, existence_budget=5)
        )
        assert est.status == "diverged"
        assert est.existence.verdict == "violated"
        assert est.existence.method == "witness"
        (w,) = est.existence.witnesses
        assert w.subspace_dim == 2
        assert w.mass == pytest.approx(0.9)
        assert np.allclose(w.basis @ w.basis.T, np.diag([1.0, 1.0, 0.0]), atol=1e-6)

    def test_mean_atom_start(self):
        rng = np.random.default_rng(9)
        q = random_q(rng, 30, 3)
        f = t_dist(3.0, 3)
        a = fixed_point_solve(q, f, SolverConfig(start="mean_atom", tol_fixed_point=1e-12))
        b = fixed_point_solve(q, f, SolverConfig(tol_fixed_point=1e-12))
        assert a.converged and b.converged
        assert np.allclose(a.sigma.mat, b.sigma.mat, atol=1e-9)

    def test_user_start(self):
        rng = np.random.default_rng(10)
        q = random_q(rng, 30, 2)
        start = SpdMatrix(np.diag([3.0, 0.5]))
        est = fixed_point_solve(q, t_dist(2.0, 2), SolverConfig(start=start))
        assert est.converged

    def test_invalid_custom_loss_rejected(self):
        f = custom(
            rho=lambda s: np.log1p(np.asarray(s, float) ** 2),
            rho_prime=lambda s: 2 * np.asarray(s, float) / (1 + np.asarray(s, float) ** 2),
        )
        q = from_observations(np.eye(2) * 2.0)
        with pytest.raises(InvalidInputError):
            fixed_point_solve(q, f)


class TestViolatedStart:
    """A violated check stops the fit at its start, returned as configured
    and measured once in Q."""

    @staticmethod
    def rows(scales=(1.0, 1.0, 1.0)):
        # 8 of 10 rows in the plane x3 = 0: its mass 0.8 reaches the 2/3 of
        # Tyler's loss and the 3/4 of t with nu = 1; the mean atom is nonsingular.
        rng = np.random.default_rng(0)
        plane = np.column_stack([rng.standard_normal((8, 2)), np.zeros(8)])
        return np.vstack([plane, rng.standard_normal((2, 3))]) * scales

    @pytest.mark.parametrize("rows", ["plane_and_two", "plane_only"])
    def test_start_is_evaluated_once(self, rows, monkeypatch):
        calls, evaluate = [], solver._evaluate

        def counted(chol, l_inv, q, f):
            calls.append(q)
            return evaluate(chol, l_inv, q, f)

        monkeypatch.setattr(solver, "_evaluate", counted)
        x = self.rows()
        q = from_observations(x if rows == "plane_and_two" else x[:8])
        est = fixed_point_solve(q, tyler(3))
        assert (est.status, est.iterations, len(est.descent_log)) == ("existence_violated", 0, 1)
        assert len(calls) == 1 and calls[0] is q
        assert est.descent_log[0] == est.criterion

    @pytest.mark.parametrize("f", [tyler(3), t_dist(1.0, 3)], ids=["tyler", "t1"])
    @pytest.mark.parametrize("start", ["identity", "given", "mean_atom"])
    def test_sigma_is_the_configured_start(self, f, start):
        q = from_observations(self.rows([1e3, 1.0, 1e-3]))
        given = SpdMatrix([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])
        cfg = SolverConfig(start=given if start == "given" else start)
        est = fixed_point_solve(q, f, cfg)
        assert est.status == "existence_violated"
        expected = {"identity": np.eye(3), "given": given.mat, "mean_atom": q.mean_atom()}[start]
        if f.case_tag == CASE0 and start != "identity":  # scaled to det 1
            assert est.sigma.logdet == pytest.approx(0.0, abs=1e-12)
            expected = expected * (est.sigma.mat[0, 0] / expected[0, 0])
            assert np.allclose(est.sigma.mat, expected, rtol=1e-14, atol=0.0)
        else:
            assert np.array_equal(est.sigma.mat, expected)
        crit, resid, gnorm = solver._measure(est.sigma, q, f)
        assert (est.criterion, est.fixed_point_residual, est.gradient_norm) == (crit, resid, gnorm)

    def test_singular_mean_atom_starts_at_the_identity(self):
        q = from_observations(self.rows()[:8])
        est = fixed_point_solve(q, gaussian(), SolverConfig(start="mean_atom"))
        assert est.status == "existence_violated"
        assert np.array_equal(est.sigma.mat, np.eye(3))

    def test_unknown_start_is_refused_before_the_verdict(self):
        q = from_observations(self.rows())
        with pytest.raises(InvalidInputError, match="unknown start"):
            fixed_point_solve(q, tyler(3), SolverConfig(start="median"))


class TestSettings:
    # NaN is refused with the values out of range: a NaN tolerance is never
    # met, and a NaN max_iter or budget never stops a fit or a search.
    @pytest.mark.parametrize("kwargs", [
        {"tol_fixed_point": math.nan}, {"tol_gradient": math.nan},
        {"tol_fixed_point": 0.0}, {"tol_gradient": -1e-10},
        {"max_iter": math.nan}, {"max_iter": 0},
    ])
    def test_config_refuses(self, kwargs):
        with pytest.raises(InvalidInputError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("budget", [math.nan, 0, 0.5])
    def test_existence_budget_refuses(self, budget):
        q = from_observations(np.random.default_rng(70).standard_normal((10, 3)))
        with pytest.raises(InvalidInputError, match="budget"):
            check_existence(q, tyler(3), budget)


class TestSolverInvariants:
    def test_case1_linear_equivariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 3))
        f = t_dist(3.0, 3)
        cfg = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12, max_iter=3000)
        base = fixed_point_solve(from_observations(x), f, cfg)
        for _ in range(5):
            b = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
            est = fixed_point_solve(from_observations(x @ b.T), f, cfg)
            expected = b @ base.sigma.mat @ b.T
            assert np.max(np.abs(est.sigma.mat - expected)) <= 1e-7

    def test_case0_linear_equivariance(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 3))
        f = tyler(3)
        cfg = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12, max_iter=3000)
        base = fixed_point_solve(from_observations(x), f, cfg)
        for _ in range(5):
            b = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
            est = fixed_point_solve(from_observations(x @ b.T), f, cfg)
            expected = b @ base.sigma.mat @ b.T
            expected /= np.linalg.det(expected) ** (1.0 / 3.0)
            assert np.max(np.abs(est.sigma.mat - expected)) <= 1e-7

    def test_transform_equivariance_on_q(self):
        rng = np.random.default_rng(13)
        q = random_q(rng, 30, 3)
        f = t_dist(2.0, 3)
        cfg = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12, max_iter=3000)
        base = fixed_point_solve(q, f, cfg)
        b = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        est = fixed_point_solve(transform(q, b, "forward"), f, cfg)
        assert np.max(np.abs(est.sigma.mat - b @ base.sigma.mat @ b.T)) <= 1e-7

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    @pytest.mark.parametrize("loss", ["t", "gaussian", "weibull"])
    def test_case1_equivariance_across_units(self, loss, scale):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 3))
        f = {"t": t_dist(3.0, 3), "gaussian": gaussian(), "weibull": weibull(0.5)}[loss]
        cfg = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12, max_iter=3000)
        base = fixed_point_solve(from_observations(x), f, cfg)
        b = scale * (rng.standard_normal((3, 3)) + 2.0 * np.eye(3))
        est = fixed_point_solve(from_observations(x @ b.T), f, cfg)
        assert est.converged
        expected = b @ base.sigma.mat @ b.T
        assert np.max(np.abs(est.sigma.mat - expected)) <= 1e-7 * np.max(np.abs(expected))
        log = est.descent_log
        assert np.all(np.diff(log) <= 1e-12 * np.max(np.abs(log)))

    # Condition numbers well inside the solver's 1e12 limit.
    @pytest.mark.parametrize("loss,cond", [("t", 1e6), ("tyler", 1e10)])
    def test_equivariance_ill_conditioned(self, loss, cond):
        q = 40
        z = np.random.default_rng(21).standard_normal((200, q))
        d = np.sqrt(np.logspace(0, math.log10(cond), q))
        f = t_dist(3.0, q) if loss == "t" else tyler(q)
        cfg = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12, max_iter=3000)
        base = fixed_point_solve(from_observations(z), f, cfg)
        est = fixed_point_solve(from_observations(z * d), f, cfg)
        assert est.converged
        back = est.sigma.mat / np.outer(d, d)
        if f.case_tag == CASE0:
            back /= np.linalg.det(back) ** (1.0 / q)
        assert np.linalg.norm(back - base.sigma.mat) <= 1e-7 * np.linalg.norm(base.sigma.mat)
        log = est.descent_log
        assert np.all(np.diff(log) <= 1e-12 * np.max(np.abs(log)))

    # From the identity start, t fits at large scales may need more than the
    # default 500 iterations.
    @pytest.mark.parametrize("exponent", [50, -50, 100, -100, 150, -150])
    def test_extreme_scales(self, exponent):
        x = np.random.default_rng(4).standard_normal((40, 3))
        c = 10.0 ** exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (t_dist(3.0, 3), gaussian(), weibull(0.5), tyler(3)):
                base = fixed_point_solve(from_observations(x), f).sigma.mat
                est = fixed_point_solve(from_observations(c * x), f)
                if f.kind == "t" and exponent > 0 and est.status == "max_iter":
                    continue
                assert est.converged
                expected = base if f.case_tag == CASE0 else c * c * base
                assert np.max(np.abs(est.sigma.mat - expected)) <= 1e-7 * np.max(np.abs(expected))

    # Squared row norms leave the normal float range: infinite, or subnormal.
    @pytest.mark.parametrize("exponent", [160, -160])
    def test_scale_out_of_range_refused(self, exponent):
        x = np.random.default_rng(4).standard_normal((40, 3))
        with pytest.raises(RangeError):
            from_observations(10.0 ** exponent * x)

    def test_frobenius_is_the_plain_norm(self):
        rng = np.random.default_rng(22)
        for _ in range(2000):
            a = rng.standard_normal(tuple(rng.integers(1, 7, size=2)))
            a *= 10.0 ** rng.uniform(-100.0, 100.0)
            assert _frobenius(a) == np.linalg.norm(a)
            assert _frobenius(a.T) == np.linalg.norm(a.T)
        # Where np.linalg.norm underflows or overflows, the scaling stays exact.
        a = rng.standard_normal((4, 4))
        for e in (-600, 600):
            assert _frobenius(np.ldexp(a, e)) == math.ldexp(np.linalg.norm(a), e)
        assert _frobenius(np.zeros((2, 2))) == 0.0

    def test_tyler_direction_invariance(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((30, 3))
        scales = rng.uniform(0.1, 10.0, size=30)
        cfg = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12, max_iter=3000)
        a = fixed_point_solve(from_observations(x), tyler(3), cfg)
        b = fixed_point_solve(from_observations(x * scales[:, None]), tyler(3), cfg)
        assert np.max(np.abs(a.sigma.mat - b.sigma.mat)) <= 1e-8

    def test_sign_symmetry_zero_block(self):
        rng = np.random.default_rng(15)
        half = rng.standard_normal((20, 4))
        flip = half.copy()
        flip[:, 2:] *= -1.0
        x = np.vstack([half, flip])
        cfg = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12, max_iter=3000)
        for f in (tyler(4), t_dist(2.0, 4)):
            est = fixed_point_solve(from_observations(x), f, cfg)
            assert est.converged
            assert np.max(np.abs(est.sigma.mat[:2, 2:])) <= 1e-9

    def test_weak_continuity_ratio(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((25, 3))
        q = from_observations(x)
        f = t_dist(2.0, 3)
        cfg = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12, max_iter=3000)
        base = fixed_point_solve(q, f, cfg).sigma.mat
        e_dirs = rng.standard_normal((q.n_atoms, 3, 3))
        e_dirs = (e_dirs + e_dirs.transpose(0, 2, 1)) / 2.0
        e_dirs /= np.linalg.norm(e_dirs, axis=(1, 2), keepdims=True)
        w_jig = rng.uniform(-1.0, 1.0, q.n_atoms)
        consts = []
        for delta in (1e-5, 1e-6):
            pert = np.einsum(
                "mij,mjk,mlk->mil",
                np.eye(3) + delta * e_dirs, q.atoms, np.eye(3) + delta * e_dirs,
            )
            w = q.weights * (1.0 + delta * w_jig)
            qd = MatrixDistribution(pert, w, clip=False)
            moved = fixed_point_solve(qd, f, cfg).sigma.mat
            consts.append(np.linalg.norm(moved - base) / delta)
        ratio = consts[0] / consts[1]
        assert 0.25 <= ratio <= 4.0

    def test_minimum_at_fixed_point_along_scans(self):
        rng = np.random.default_rng(17)
        q = random_q(rng, 30, 3)
        f = t_dist(2.0, 3)
        est = fixed_point_solve(q, f, SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12))
        b = est.sigma.sqrt()
        grid = np.linspace(-0.5, 0.5, 21)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            a = (a + a.T) / 2.0
            a /= np.linalg.norm(a)
            vals = directional_scan(b, a, q, f, grid)
            assert np.argmin(vals) == 10


@st.composite
def affine_maps(draw):
    """Rows, a loss kind, a nonsingular B of condition number up to 1e6 and a
    shift of norm up to 1e3 (applied to location fits only)."""
    kind = draw(st.sampled_from(["tyler", "t", "gaussian", "locscatter"]))
    q = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((draw(st.integers(3 * q, 40)), q))
    u, v = (np.linalg.qr(rng.standard_normal((q, q)))[0] for _ in range(2))
    b = (u * np.logspace(0.0, draw(st.floats(0.0, 6.0)), q)) @ v.T
    m = rng.standard_normal(q)
    return kind, x, b, m * draw(st.floats(0.0, 1e3)) / np.linalg.norm(m)


class TestFrame:
    """Fits iterate where the mean atom is the identity, and existence is
    decided there."""

    @pytest.mark.parametrize("f", [t_dist(3.0, 20), tyler(20), gaussian()],
                             ids=["t3", "tyler", "gaussian"])
    def test_column_scales_converge(self, f):
        x = np.random.default_rng(1).standard_normal((300, 20)) * np.logspace(-3, 3, 20)
        est = fixed_point_solve(from_observations(x), f)
        assert est.converged
        assert est.existence.verdict != "violated"

    @pytest.mark.parametrize("entry", [check_existence, fixed_point_solve],
                             ids=["check_existence", "fixed_point_solve"])
    @pytest.mark.parametrize("case_tag, psi_inf", [(CASE1, 2.0), (CASE1_PRIME, 3.0)],
                             ids=["case1", "case1prime"])
    def test_case1_loss_needs_psi_infinity_above_q(self, entry, case_tag, psi_inf):
        # rho'(s) = c/(1+s) passes validate, but with psi(inf) = c <= q = 3
        # the threshold of a line is c - 2 <= 1/3 of the mass.
        c = psi_inf
        f = custom(rho=lambda s: c * np.log1p(s), rho_prime=lambda s: c / (1.0 + s),
                   rho_second=lambda s: -c / (1.0 + s) ** 2, psi_infinity=c, case_tag=case_tag)
        assert validate(f).passed
        q = from_observations(np.random.default_rng(0).standard_normal((200, 3)))
        with pytest.raises(DomainError):
            entry(q, f)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(problem=affine_maps())
    def test_mean_atom_start_is_equivariant(self, problem):
        kind, x, b, m = problem
        q, cfg = x.shape[1], SolverConfig(start="mean_atom")
        if kind == "locscatter":
            base, est = (estimate_location_scatter(y, 3.0, cfg) for y in (x, x @ b.T + m))
            reports = (base.inner.existence, est.inner.existence)
        else:
            f = {"tyler": tyler(q), "t": t_dist(3.0, q), "gaussian": gaussian()}[kind]
            base, est = (fixed_point_solve(from_observations(y), f, cfg) for y in (x, x @ b.T))
            reports = (base.existence, est.existence)
        assert est.status == base.status
        assert reports[1].verdict == reports[0].verdict
        event(f"{kind}: iterations moved by {abs(est.iterations - base.iterations)}")
        if base.converged:
            expected = b @ base.sigma.mat @ b.T
            if kind == "tyler":
                # Up to scale: at condition numbers near 1e10 a determinant
                # is good to about 1e-6, so det-1 matrices differ by that much.
                expected *= np.trace(est.sigma.mat) / np.trace(expected)
            rel = np.linalg.norm(est.sigma.mat - expected) / np.linalg.norm(expected)
            assert rel <= 1e-8

    FITS = {
        "tyler": lambda x: fixed_point_solve(from_observations(x), tyler(4)),
        "t": lambda x: fixed_point_solve(from_observations(x), t_dist(3.0, 4)),
        "gaussian": lambda x: fixed_point_solve(from_observations(x), gaussian()),
        "order2": lambda x: fixed_point_solve(build_kstat(x[:30], 2), tyler(4)),
        "location": lambda x: estimate_location_scatter(x, 3.0),
        "procov": lambda x: solve_procov([WishartGroup(PsdAtom(y.T @ y), 10)
                                          for y in x.reshape(20, 10, 4)]),
    }

    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_one_whitening_before_the_loop(self, fit, monkeypatch):
        # Every congruence is recorded by the distribution it transforms, at
        # both places the package looks it up: the fit's Q is whitened once,
        # for its check and its loop alike; a certificate whitens Q' besides.
        sources, congruence = [], distribution._congruence

        def recorded(q, t):
            sources.append(q)
            return congruence(q, t)

        monkeypatch.setattr(distribution, "_congruence", recorded)
        monkeypatch.setattr(solver, "_congruence", recorded)
        est = self.FITS[fit](np.random.default_rng(40).standard_normal((200, 4)))
        assert est.status == "converged"
        q = sources[0]
        assert sum(s is q for s in sources) == 1
        qf = distribution._frame(q)[2]  # kept on Q: no new congruence
        assert all(s is qf for s in sources[1:]) and len(sources) <= 2

    @staticmethod
    def assert_same_report(a, b):
        assert (a.verdict, a.method, len(a.witnesses)) == (b.verdict, b.method, len(b.witnesses))
        for u, v in zip(a.witnesses, b.witnesses):
            assert np.array_equal(u.basis, v.basis)
            assert (u.mass, u.threshold) == (v.mass, v.threshold)

    @pytest.mark.parametrize("rows, budget", [("general", 1000), ("general", 10), ("line", 1000),
                                              ("plane", 1000), ("groups", 1000)])
    def test_check_then_fit_matches_fresh_copies(self, rows, budget):
        # Satisfied, undecided then certified, violated by a line, violated
        # by a singular mean atom, and dense atoms.
        def build():
            rng = np.random.default_rng(41)
            x = rng.standard_normal((40, 3))
            if rows == "line":
                x[:20] = rng.standard_normal((20, 1)) * [1.0, 2.0, 3.0]
            elif rows == "plane":
                x[:, 2] = 0.0
            elif rows == "groups":
                return from_wishart_groups([WishartGroup(PsdAtom(y.T @ y), 8)
                                            for y in x.reshape(5, 8, 3)])
            return from_observations(x)

        f, cfg = tyler(3), SolverConfig(existence_budget=budget)
        q = build()
        report, est = check_existence(q, f, budget), fixed_point_solve(q, f, cfg)
        self.assert_same_report(report, check_existence(build(), f, budget))
        fresh = fixed_point_solve(build(), f, cfg)
        assert (est.status, est.iterations, est.criterion) == (fresh.status, fresh.iterations,
                                                               fresh.criterion)
        assert np.array_equal(est.sigma.mat, fresh.sigma.mat)
        self.assert_same_report(est.existence, fresh.existence)


class TestHessian:
    def test_gaussian_identity_operator(self):
        q = MatrixDistribution(np.stack([np.eye(3)]))
        h = hessian(q, gaussian())
        rng = np.random.default_rng(18)
        a = rng.standard_normal((3, 3))
        a = (a + a.T) / 2.0
        assert np.allclose(h.apply(a), a, atol=1e-12)

    def test_case0_rank_one_design(self):
        # Six equally spaced directions form an exact degree-4 design in the
        # plane, so the Hessian acts as q/(q+2) = 1/2 on trace-free matrices.
        ang = np.arange(6) * math.pi / 6.0
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        q = from_observations(dirs)
        h = hessian(q, tyler(2))
        rng = np.random.default_rng(19)
        a = rng.standard_normal((2, 2))
        a = (a + a.T) / 2.0
        a -= np.trace(a) / 2.0 * np.eye(2)
        assert np.allclose(h.apply(a), 0.5 * a, atol=1e-12)

    def test_self_adjoint_and_positive(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((30, 3))
        q = from_observations(x / np.linalg.norm(x, axis=1, keepdims=True))
        for f in (tyler(3), t_dist(2.0, 3)):
            h = hessian(q, f)
            assert np.max(np.abs(h.matrix - h.matrix.T)) <= 1e-9
            assert h.eigenvalues()[0] > 0.0

    def test_second_difference_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((25, 3))
        f = t_dist(2.0, 3)
        cfg = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12)
        est = fixed_point_solve(from_observations(x), f, cfg)
        x_std = x @ est.sigma.inv_sqrt()
        q_std = from_observations(x_std)
        h = hessian(q_std, f)
        t = 1e-4
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            a = (a + a.T) / 2.0
            a /= np.linalg.norm(a)
            lam, u = np.linalg.eigh(a)
            ep = (u * np.exp(t * lam)) @ u.T
            em = (u * np.exp(-t * lam)) @ u.T
            fd = (
                criterion(ep, q_std, f)
                - 2 * criterion(np.eye(3), q_std, f)
                + criterion(em, q_std, f)
            ) / t**2
            quad = float(np.sum(a * h.apply(a)))
            assert abs(fd - quad) <= 1e-5 * (1.0 + abs(fd))

    def test_case0_second_difference_with_trace_projection(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((25, 3))
        f = tyler(3)
        cfg = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12)
        est = fixed_point_solve(from_observations(x), f, cfg)
        x_std = x @ est.sigma.inv_sqrt()
        q_std = from_observations(x_std)
        h = hessian(q_std, f)
        t = 1e-4
        a = rng.standard_normal((3, 3))
        a = (a + a.T) / 2.0  # general direction; criterion only sees its trace-free part
        lam, u = np.linalg.eigh(a)
        ep = (u * np.exp(t * lam)) @ u.T
        em = (u * np.exp(-t * lam)) @ u.T
        fd = (
            criterion(ep, q_std, f)
            - 2 * criterion(np.eye(3), q_std, f)
            + criterion(em, q_std, f)
        ) / t**2
        quad = float(np.sum(h.project(a) * h.apply(a)))
        assert abs(fd - quad) <= 1e-5 * (1.0 + abs(fd))

    def test_solve_inverts_apply(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((20, 3))
        q = from_observations(x)
        h = hessian(q, t_dist(3.0, 3))
        a = rng.standard_normal((3, 3))
        a = (a + a.T) / 2.0
        assert np.allclose(h.solve(h.apply(a)), a, atol=1e-10)

    def test_missing_second_derivative_unsupported(self):
        q = from_observations(np.eye(2) * 2.0)
        f = custom(rho=lambda s: np.asarray(s, float),
                   rho_prime=lambda s: np.ones_like(np.asarray(s, float)))
        with pytest.raises(UnsupportedOperationError):
            hessian(q, f)


class TestDirectionalScan:
    def test_zero_direction_constant(self):
        rng = np.random.default_rng(24)
        q = random_q(rng, 10, 2)
        vals = directional_scan(np.eye(2), np.zeros((2, 2)), q, t_dist(1.0, 2),
                                np.linspace(-1, 1, 9))
        assert np.allclose(vals, vals[0])

    def test_tyler_three_point_strictly_convex(self):
        q = from_observations(three_point_fixture())
        grid = np.linspace(-1.0, 1.0, 21)
        vals = directional_scan(np.eye(2), np.diag([1.0, -1.0]), q, tyler(2), grid)
        second = np.diff(vals, 2)
        assert np.all(second > 0.0)

    def test_concentrated_case1_affine_profile(self):
        # Atoms inside the null space of A: the scan reduces to t * tr(A).
        q = MatrixDistribution(np.stack([np.diag([0.0, 1.0]), np.diag([0.0, 2.0])]))
        grid = np.linspace(-1.0, 1.0, 11)
        vals = directional_scan(np.eye(2), np.diag([1.0, 0.0]), q, t_dist(1.0, 2), grid)
        assert np.allclose(vals, grid * 1.0, atol=1e-12)
        assert np.max(np.abs(np.diff(vals, 2))) <= 1e-12

    def test_convexity_of_random_scans(self):
        rng = np.random.default_rng(25)
        for f in (tyler(3), t_dist(1.0, 3), weibull(0.5)):
            q = random_q(rng, 20, 3)
            b = rng.standard_normal((3, 3)) + 2 * np.eye(3)
            a = rng.standard_normal((3, 3))
            a = (a + a.T) / 2.0
            vals = directional_scan(b, a, q, f, np.linspace(-2, 2, 41))
            assert np.all(np.diff(vals, 2) >= -1e-8)


class TestProCov:
    def test_single_group_closed_form(self):
        rng = np.random.default_rng(26)
        b = rng.standard_normal((3, 3))
        s1 = b @ b.T + np.eye(3)
        fit = solve_procov([WishartGroup(PsdAtom(s1), 10)],
                           SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12))
        assert fit.status == "converged"
        expected = s1 / np.linalg.det(s1) ** (1.0 / 3.0)
        assert np.allclose(fit.sigma.mat, expected, atol=1e-9)
        c1 = np.trace(np.linalg.solve(expected, s1)) / (3 * 10)
        assert fit.scales[0] == pytest.approx(c1, rel=1e-9)

    def test_exactly_proportional_groups(self):
        rng = np.random.default_rng(27)
        b = rng.standard_normal((3, 3))
        sigma0 = b @ b.T + np.eye(3)
        cs = [1.0, 2.0, 4.0]
        groups = [WishartGroup(PsdAtom(c * 7 * sigma0), 7) for c in cs]
        fit = solve_procov(groups, SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12))
        assert fit.status == "converged"
        expected = sigma0 / np.linalg.det(sigma0) ** (1.0 / 3.0)
        assert np.allclose(fit.sigma.mat, expected, atol=1e-8)
        ratios = fit.scales / fit.scales[0]
        assert np.allclose(ratios, np.array(cs) / cs[0], rtol=1e-8)

    def test_simulated_wishart_stationarity(self):
        stream = SeededStream(100)
        sigma0 = np.diag([1.0, 2.0, 0.5])
        sigma0 /= np.linalg.det(sigma0) ** (1.0 / 3.0)
        groups = [
            WishartGroup(wishart(SpdMatrix(c * sigma0), 10, stream), 10)
            for c in (1.0, 2.0, 4.0)
        ]
        fit = solve_procov(groups, SolverConfig(tol_fixed_point=1e-12, tol_gradient=1e-11))
        assert fit.status == "converged"
        assert fit.stationarity_residual <= 1e-6

    def test_scales_and_stationarity_match_per_group_formulas(self):
        rng = np.random.default_rng(31)
        groups = []
        for dof in (3, 5, 8, 13):
            b = rng.standard_normal((4, 4))
            groups.append(WishartGroup(PsdAtom(b @ b.T + 0.1 * np.eye(4)), dof))
        fit = solve_procov(groups, SolverConfig(max_iter=3))
        sigma = fit.sigma
        dofs = np.array([g.dof for g in groups], dtype=float)
        scales = np.array([np.trace(sigma.solve(g.scatter.mat)) for g in groups]) / (4 * dofs)
        recon = sum(g.scatter.mat / c for c, g in zip(scales, groups)) / dofs.sum()
        alpha = np.sum(recon * sigma.mat) / np.sum(sigma.mat * sigma.mat)
        resid = np.linalg.norm(recon - alpha * sigma.mat) / np.linalg.norm(sigma.mat)
        assert np.allclose(fit.scales, scales, rtol=1e-12, atol=0.0)
        assert fit.stationarity_residual == pytest.approx(resid, rel=1e-12)

    def test_insufficient_groups_flagged(self):
        # One rank-2 group in R^3 cannot identify the scatter.
        low = PsdAtom(np.diag([1.0, 1.0, 0.0]))
        fit = solve_procov([WishartGroup(low, 2)])
        assert fit.status == "existence_violated"


class TestPsiMapExistenceSignal:
    def test_singular_psi_raises(self):
        from mscatter import NotPositiveDefiniteError

        # All atoms on one line: Psi(I, Q) is singular, which is the
        # existence-violation signal at the map level.
        q = from_observations(np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            psi_map(np.eye(2), q, tyler(2))


def basis_tensor(dim):
    """Dense (p, q, q) orthonormal basis of the Hessian's coordinates: diagonal
    units, then (e_i e_j^T + e_j e_i^T)/sqrt(2) for i < j in row-major order."""
    out = []
    for i in range(dim):
        e = np.zeros((dim, dim))
        e[i, i] = 1.0
        out.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim))
            e[i, j] = e[j, i] = 1.0 / math.sqrt(2.0)
            out.append(e)
    return np.stack(out)


def basis_tensor_hessian(q, f):
    """Reference Hessian matrix built by contracting the basis tensor:
    <E_a, H E_b> = tr(E_a E_b P)/sym + sum_i w_i rho''_i tr(E_a M_i) tr(E_b M_i),
    plus for Case 0 the unit projector onto svec(I)/sqrt(q)."""
    nz = q.traces > 0.0
    atoms, w, tr = q.atoms[nz], q.weights[nz], q.traces[nz]
    basis = basis_tensor(q.dim)
    pmat = np.einsum("m,mij->ij", w * np.asarray(f.rho_prime(tr)), atoms)
    g1 = np.einsum("aij,bjk,ki->ab", basis, basis, pmat)
    tmat = np.einsum("aij,mij->am", basis, atoms)
    out = (g1 + g1.T) / 2.0 + (tmat * (w * np.asarray(f.rho_second(tr)))) @ tmat.T
    if f.case_tag == CASE0:
        u = np.einsum("aii->a", basis) / math.sqrt(q.dim)
        out += np.outer(u, u)
    return out


def atom_design(kind, dim, rng):
    x = rng.standard_normal((12, dim)) * np.linspace(0.5, 2.0, dim)
    if kind == "rank_one":
        return from_observations(x)
    if kind == "k_subset":
        return build_kstat(x, 3, cap=100, seed=1)
    groups = [WishartGroup(PsdAtom(y.T @ y), dof=4 + g)
              for g, y in enumerate(rng.standard_normal((5, dim + 2, dim)))]
    return from_wishart_groups(groups)


# The Case 0 Hessian as it was built on the q - 1 Helmert contrasts of the
# diagonal, kept verbatim (only the atoms come as one dense block) as the
# oracle of the completed plain coordinates.
def _diagonal_map(dim, case_tag):
    """Rows giving the diagonal coordinates from a matrix diagonal: the
    identity, or for Case 0 the (dim-1, dim) orthonormal Helmert contrasts
    that span the trace-zero diagonals."""
    return helmert(dim) if case_tag == CASE0 else np.eye(dim)


@dataclass
class HelmertHessian:
    dim: int
    case_tag: str
    matrix: np.ndarray = field(repr=False)

    def project(self, a):
        a = np.asarray(a, dtype=float)
        a = (a + np.swapaxes(a, -1, -2)) / 2.0
        if self.case_tag == CASE0:
            trace = np.trace(a, axis1=-2, axis2=-1)[..., None, None]
            a = a - (trace / self.dim) * np.eye(self.dim)
        return a

    def _coords(self, a):
        i, j = np.triu_indices(self.dim, 1)
        diag = np.diagonal(a, axis1=-2, axis2=-1) @ _diagonal_map(self.dim, self.case_tag).T
        return np.concatenate([diag, math.sqrt(2.0) * a[..., i, j]], axis=-1)

    def _reconstruct(self, coords):
        dmap = _diagonal_map(self.dim, self.case_tag)
        i, j = np.triu_indices(self.dim, 1)
        off = coords[..., dmap.shape[0]:] / math.sqrt(2.0)
        out = np.zeros(coords.shape[:-1] + (self.dim, self.dim))
        out[..., i, j] = off
        out[..., j, i] = off
        d = np.arange(self.dim)
        out[..., d, d] = coords[..., : dmap.shape[0]] @ dmap
        return out

    def apply(self, a):
        return self._reconstruct(self._coords(self.project(a)) @ self.matrix.T)

    def solve(self, a):
        coords = self._coords(self.project(a))
        # Explicit row count: Tyler's domain at dim 1 has no coordinates.
        flat = coords.reshape(math.prod(coords.shape[:-1]), coords.shape[-1])
        return self._reconstruct(np.linalg.solve(self.matrix, flat.T).T.reshape(coords.shape))

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.matrix)


def helmert_hessian(q, f):
    dim = q.dim
    nz = _off_zero(q.traces, f)
    second = np.zeros(q.n_atoms)
    second[nz] = q.weights[nz] * np.asarray(f.rho_second(q.traces[nz]))

    pmat = solver._evaluate(np.eye(dim), np.eye(dim), q, f)[1].ravel()
    s, terms = _first_term_pattern(dim)
    term1 = np.zeros(s.size ** 2)
    for dst, src in terms:
        term1[dst] += pmat[src]
    term1 = s * s.T * term1.reshape(s.size, s.size)
    dmap = _diagonal_map(dim, f.case_tag)
    term1 = np.vstack([dmap @ term1[:dim], term1[dim:]])
    term1 = np.hstack([term1[:, :dim] @ dmap.T, term1[:, dim:]])

    h = HelmertHessian(dim=dim, case_tag=f.case_tag, matrix=term1)
    for lo, atoms in [(0, q.atoms)]:
        coords = h._coords(atoms)  # (block, p): tr(E_a M_i)
        h.matrix += (coords.T * second[lo:lo + len(atoms)]) @ coords
    return h


def certified(h):
    try:
        np.linalg.cholesky(h.matrix)
        return True
    except np.linalg.LinAlgError:
        return False


@st.composite
def tyler_designs(draw):
    """A Tyler problem of dimension 1 to 6 whitened at its converged fit:
    observations, the sample covariances of 3-subsets, or Wishart groups of
    drawn degrees of freedom."""
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["observations", "k_subsets", "wishart"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "wishart":
        dofs = draw(st.lists(st.integers(1, dim + 3), min_size=1, max_size=6))
        q = from_wishart_groups([WishartGroup(PsdAtom(y.T @ y), dof=d)
                                 for d, y in ((d, rng.standard_normal((d, dim))) for d in dofs)])
    else:
        n = draw(st.integers(max(dim + 1, 3), 2 * dim + 4))
        x = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, dim)
        q = from_observations(x) if kind == "observations" else build_kstat(x, 3, cap=60, seed=1)
    est = fixed_point_solve(q, tyler(dim))
    assume(est.converged)
    event(kind)
    return transform(q, est.sigma.inv_sqrt()), rng


class TestHessianCoordinates:
    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("kind", ["rank_one", "k_subset", "wishart"])
    @pytest.mark.parametrize("loss", ["tyler", "t", "gaussian"])
    def test_matches_basis_tensor_construction(self, dim, kind, loss):
        rng = np.random.default_rng(40 + dim)
        q = atom_design(kind, dim, rng)
        f = {"tyler": tyler(dim), "t": t_dist(2.5, dim), "gaussian": gaussian()}[loss]
        h = hessian(q, f)
        ref = basis_tensor_hessian(q, f)
        assert h.matrix.shape == ref.shape
        assert np.max(np.abs(h.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(design=tyler_designs())
    def test_case0_completion_matches_the_helmert_oracle(self, design):
        q, rng = design
        f = tyler(q.dim)
        h, oracle = hessian(q, f), helmert_hessian(q, f)
        a = rng.standard_normal((5, q.dim, q.dim))
        a = oracle.project(a)  # trace-free inputs
        for new, old in ((h.apply(a), oracle.apply(a)), (h.solve(a), oracle.solve(a))):
            assert np.max(np.abs(new - old)) <= 1e-12 * max(np.max(np.abs(old)), 1.0)
        lam, lam_old = h.eigenvalues(), oracle.eigenvalues()
        assert np.max(np.abs(lam - np.sort(np.append(lam_old, 1.0)))) <= 1e-12
        near_one = [np.sum(np.abs(v - 1.0) <= 1e-12) for v in (lam, lam_old)]
        assert near_one[0] == near_one[1] + 1
        assert certified(h) == certified(oracle)

    @pytest.mark.parametrize("f", [tyler(4), t_dist(3.0, 4)], ids=["tyler", "t"])
    def test_stacks_match_per_matrix_calls(self, f):
        rng = np.random.default_rng(41)
        h = hessian(from_observations(rng.standard_normal((30, 4))), f)
        stack = rng.standard_normal((6, 4, 4))
        for method in (h.project, h.apply, h.solve):
            batched = method(stack)
            looped = np.stack([method(a) for a in stack])
            assert batched.shape == stack.shape
            assert np.max(np.abs(batched - looped)) <= 1e-12 * np.max(np.abs(looped))

    @pytest.mark.parametrize("dim", [1, 2, 4, 7])
    @pytest.mark.parametrize("loss", ["tyler", "t", "weibull"])
    def test_first_term_pattern_is_the_broadcast_bit_for_bit(self, dim, loss):
        # Case 0 (Tyler), Case 1' (t) and Case 1 (Weibull) against the p x p
        # broadcast of index comparisons that the pattern replaced.
        rng = np.random.default_rng(42 + dim)
        q = from_observations(rng.standard_normal((40, dim)) * np.linspace(0.5, 2.0, dim))
        f = {"tyler": tyler(dim), "t": t_dist(2.5, dim), "weibull": weibull(0.5)}[loss]
        pmat = solver._evaluate(np.eye(dim), np.eye(dim), q, f)[1]
        iu, ju = np.triu_indices(dim, 1)
        i = np.concatenate([np.arange(dim), iu])[:, None]
        j = np.concatenate([np.arange(dim), ju])[:, None]
        k, l = i.T, j.T
        s = np.where(i == j, 0.5, 1.0 / math.sqrt(2.0))
        ref = s * s.T * (
            (j == k) * pmat[i, l] + (j == l) * pmat[i, k]
            + (i == k) * pmat[j, l] + (i == l) * pmat[j, k]
        )
        second = q.weights * np.asarray(f.rho_second(q.traces))
        coords = _svec(q.atoms)
        ref -= (g := coords * np.sqrt(-second)[:, None]).T @ g  # one block, rho'' <= 0
        if f.case_tag == CASE0:
            ref[:dim, :dim] += 1.0 / dim
        assert np.array_equal(hessian(q, f).matrix, ref)


def gemm_hessian(q, f):
    """(H, atom term) with the atom term as the general product of the
    coordinates scaled by w rho'' with the coordinates, a block at a time, as
    ``hessian`` built it before it took symmetric products."""
    dim = q.dim
    nz = solver._off_zero(q, f)
    second = np.zeros(q.n_atoms)
    second[nz] = q.weights[nz] * np.asarray(f.rho_second(q.traces[nz]))
    pmat = solver._evaluate(np.eye(dim), np.eye(dim), q, f)[1].ravel()
    s, terms = _first_term_pattern(dim)
    h = np.zeros(s.size ** 2)
    for dst, src in terms:
        h[dst] += pmat[src]
    h = s * s.T * h.reshape(s.size, s.size)
    atom = np.zeros_like(h)
    for lo, coords in q._svec_blocks():
        term = (coords.T * second[lo:lo + len(coords)]) @ coords
        h += term
        atom += term
    if f.case_tag == CASE0:
        h[:dim, :dim] += 1.0 / dim
    return h, atom


def many_blocks_design(kind, dim, rng):
    x = rng.standard_normal((60, dim)) * np.linspace(0.5, 2.0, dim)
    if kind == "rows":
        return from_observations(x)
    if kind == "k_subset":
        return build_kstat(x[:10], 3)
    groups = [WishartGroup(PsdAtom(y.T @ y), dof=2 + g % 5)
              for g, y in enumerate(rng.standard_normal((20, dim + 1, dim)))]
    return from_wishart_groups(groups)


class TestSymmetricAtomTerm:
    """The atom term sum_i w_i rho''_i c_i c_i^T is -G^T G a block, G the
    coordinates scaled by sqrt(-w rho''), plus a product of its own for atoms
    with rho'' > 0."""

    LOSSES = {
        "tyler": lambda dim: tyler(dim),
        "t": lambda dim: t_dist(2.5, dim),
        "weibull": lambda dim: weibull(0.5),
        "gaussian": lambda dim: gaussian(),
        # rho'' = cos(s) takes both signs over the traces of these designs
        "custom": lambda dim: custom(lambda s: s - np.cos(s), lambda s: 1.0 + np.sin(s),
                                     lambda s: np.cos(s)),
    }

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("kind", ["rows", "k_subset", "wishart"])
    @pytest.mark.parametrize("loss", list(LOSSES))
    def test_matches_the_general_product(self, monkeypatch, dim, kind, loss):
        rng = np.random.default_rng(60 + dim)
        q = many_blocks_design(kind, dim, rng)
        f = self.LOSSES[loss](dim)
        monkeypatch.setattr(symmat, "_BLOCK_ENTRIES", 7 * dim * (dim + 1) // 2)  # several blocks
        assert len(list(q._svec_blocks())) >= 3
        h = hessian(q, f).matrix
        ref, atom = gemm_hessian(q, f)
        if loss == "custom":
            second = f.rho_second(q.traces)
            assert (second > 0).any() and (second < 0).any()
        assert np.array_equal(h, h.T)
        assert np.linalg.norm(h - ref) <= 1e-13 * np.linalg.norm(atom)

    def test_no_coordinates_when_every_second_derivative_is_zero(self, monkeypatch):
        q = from_observations(np.random.default_rng(61).standard_normal((30, 4)))
        ref, atom = gemm_hessian(q, gaussian())
        assert not atom.any()
        monkeypatch.setattr(MatrixDistribution, "_svec_blocks",
                            lambda self: pytest.fail("coordinates read"))
        assert np.array_equal(hessian(q, gaussian()).matrix, ref)

    @pytest.mark.parametrize("kind", ["rows", "k_subset", "wishart"])
    def test_scaling_leaves_the_distribution_as_it_was(self, kind):
        # hessian scales each block's coordinates in place
        q = many_blocks_design(kind, 3, np.random.default_rng(62))
        before = [c.copy() for _, c in q._svec_blocks()]
        hessian(q, t_dist(2.5, 3))
        assert all(np.array_equal(b, c) for b, (_, c) in zip(before, q._svec_blocks()))


# -- the fixed-point loop against its eigenvalue-per-step reference ---------------


def reference_evaluate(chol, q, f):
    """The evaluation kernel as it was before the loop handed it L^-1."""
    nz = _off_zero(q.traces, f)
    l_inv = np.linalg.inv(chol)
    t = q.traces_under(l_inv.T @ l_inv)[nz]
    w = q.weights[nz]
    crit = float(w @ np.asarray(f.rho(t))) + 2.0 * float(np.sum(np.log(np.diag(chol))))
    coeff = np.zeros(q.n_atoms)
    coeff[nz] = w * np.asarray(f.rho_prime(t))
    psi = q.weighted_sum(coeff)
    return crit, (psi + psi.T) / 2.0, l_inv


def reference_solve(q, f, cfg=None):
    """``fixed_point_solve`` as it was when every step took the eigenvalues of
    Psi, for the divergence rule and for the Case 0 determinant."""
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
    s = chol @ chol.T

    log_values, iterations = [], 0
    while True:
        crit, psi, w = reference_evaluate(chol, qf, f)
        log_values.append(crit)

        diff = psi - s
        if _frobenius(w @ diff @ w.T) <= cfg.tol_gradient and (
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
    return _estimate(sigma, q, f, iterations, status, log_values, existence)


@st.composite
def loop_problems(draw):
    """(loss kind, fit, reference fit) of one problem.  Rows of dimension 2
    to 6, part of them in a drawn subspace, under Tyler, t, Gaussian or
    Weibull, or Wishart groups under procov; a budget of 5 leaves the harder
    checks undecided, so that fits diverge, and max_iter cuts some fits short.
    Each fit builds its own Q.  Everything is drawn from one seeded generator,
    so that the kinds and the shares of rows in the subspace spread evenly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = ("tyler", "t", "gaussian", "weibull", "procov")[rng.integers(5)]
    dim = int(rng.integers(2, 7))
    sub_dim = int(rng.integers(1, dim))
    basis = rng.standard_normal((sub_dim, dim))
    over_full = rng.random() < 0.5  # more rows in the subspace than Tyler's d/q

    def rows(n):
        x = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, dim)
        share = rng.uniform(sub_dim / dim, 0.95) if over_full else rng.uniform(0.0, 1.0)
        inside = int(round(n * share))
        x[:inside] = rng.standard_normal((inside, sub_dim)) @ basis
        return x

    if kind == "procov":
        dofs = rng.integers(1, dim + 4, size=rng.integers(2, 7))
        groups = [WishartGroup(PsdAtom(y.T @ y), dof=int(d))
                  for d, y in ((d, rows(d)) for d in dofs)]
        f = tyler(dim)
    else:
        x = rows(int(rng.integers(dim + 1, 61)))
        f = {"tyler": tyler(dim), "t": t_dist(float(rng.choice([1.0, 1.5, 3.0])), dim),
             "gaussian": gaussian(), "weibull": weibull(0.5)}[kind]
    cfg = SolverConfig(max_iter=500 if rng.random() < 0.75 else int(rng.integers(1, 40)),
                       existence_budget=5, start=("identity", "mean_atom")[rng.integers(2)])

    def build():
        return from_wishart_groups(groups) if kind == "procov" else from_observations(x)

    def fit():
        if kind == "procov":
            return solve_procov(groups, cfg).estimate
        return fixed_point_solve(build(), f, cfg)

    return kind, fit, lambda: reference_solve(build(), f, cfg)


def assert_matches_reference(kind, new, ref):
    """The fit ``new`` against the reference loop's ``ref`` of the same problem."""
    assert (new.status, new.iterations, new.existence.verdict, new.existence.method) == (
        ref.status, ref.iterations, ref.existence.verdict, ref.existence.method)
    assert len(new.existence.witnesses) == len(ref.existence.witnesses)
    for a, b in zip(new.existence.witnesses, ref.existence.witnesses):
        assert (a.basis.shape, a.mass, a.threshold) == (b.basis.shape, b.mass, b.threshold)
        assert np.linalg.norm(a.basis @ a.basis.T - b.basis @ b.basis.T, 2) <= 1e-12
    if kind not in ("tyler", "procov"):  # Case 1 and 1': the same operations
        assert np.array_equal(new.sigma.mat, ref.sigma.mat)
        assert np.array_equal(new.descent_log, ref.descent_log)
        return
    # Case 0 reads det(Psi)^(1/q) off the Cholesky factor instead of the
    # eigenvalues.  That changes the rounding of each iterate, which the
    # fit's conditioning amplifies to about eps * cond(Sigma); both
    # determinants are good only to that.  A diverged fit ends near cond
    # 1e12, where that is no bound at all: its status, iterations and
    # witness decide it.
    if ref.status == STATUS_DIVERGED:
        return
    bound = max(1e-13, np.finfo(float).eps * np.linalg.cond(ref.sigma.mat))
    gap = np.max(np.abs(new.descent_log - ref.descent_log), initial=0.0)
    assert gap <= bound * max(1.0, np.max(np.abs(ref.descent_log), initial=0.0))
    assert np.linalg.norm(new.sigma.mat - ref.sigma.mat) <= bound * np.linalg.norm(ref.sigma.mat)


class TestLeanStep:
    """Each step factors Psi once; eigenvalues only near the condition limit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(problem=loop_problems())
    def test_matches_the_reference_loop(self, problem):
        kind, fit, reference = problem
        new, ref = fit(), reference()
        event(f"{kind}: {ref.status}")
        assert_matches_reference(kind, new, ref)

    @staticmethod
    def eigenvalue_rule(psi):
        lam = np.linalg.eigvalsh(psi)
        return bool(lam[0] <= 0.0 or lam[-1] / lam[0] > 1e12)

    @staticmethod
    def with_spectrum(lam, rotate):
        if not rotate:
            return np.diag(lam)
        u = np.linalg.qr(np.random.default_rng(len(lam)).standard_normal((len(lam),) * 2))[0]
        psi = (u * lam) @ u.T
        return (psi + psi.T) / 2.0

    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    @pytest.mark.parametrize("case0", [False, True], ids=["case1", "case0"])
    @pytest.mark.parametrize("spectrum, diverged", [
        ([1.0, 0.3, 1e-9], False), ([2.0, 1.0, 0.5, 2e-11], False),
        ([1.0, 1e-12 * (1.0 + 1e-6), 0.7], False), ([1.0, 0.5, 1e-12 * (1.0 - 1e-6)], True),
        ([1.0, 1e-13, 0.2, 0.3], True), ([1.0, 1.0, 0.0], True), ([1.0, -1e-3, 2.0], True),
    ], ids=["1e9", "1e11", "1e12-below", "1e12-above", "1e13", "singular", "indefinite"])
    def test_divergence_is_the_eigenvalue_rule(self, spectrum, diverged, case0, rotate):
        # Condition numbers 1e9, 1e11, 1e12 (1 -+ 1e-6) and 1e13.  On the
        # diagonal the eigenvalues are exact; in a random basis the rule
        # reads them as eigvalsh computes them.
        psi = self.with_spectrum(np.array(spectrum), rotate)
        step = solver._step(psi, case0)
        assert (step is None) == self.eigenvalue_rule(psi)
        if not rotate:
            assert (step is None) == diverged
        if step is not None:
            chol, l_inv, s = step
            assert np.allclose(chol @ chol.T, s, rtol=0.0, atol=1e-14 * np.abs(s).max())
            assert np.array_equal(np.tril(chol), chol)
            assert np.allclose(l_inv @ chol, np.eye(len(spectrum)), rtol=0.0, atol=1e-6)

    def test_conditions_up_to_the_limit(self):
        # Condition numbers 1e6 to 1e14 in random bases: every decision is
        # the eigenvalue rule's, however far the bound is from it.
        rng = np.random.default_rng(50)
        for _ in range(200):
            q = int(rng.integers(2, 7))
            lam = np.exp(rng.uniform(0.0, 1.0, q) * np.log(10.0) * rng.uniform(6.0, 14.0))
            u = np.linalg.qr(rng.standard_normal((q, q)))[0]
            psi = (u * lam) @ u.T
            psi = (psi + psi.T) / 2.0
            assert (solver._step(psi, bool(rng.integers(2))) is None) == self.eigenvalue_rule(psi)

    def test_case0_step_has_determinant_one(self):
        psi = self.with_spectrum(np.array([40.0, 3.0, 0.2, 1e-3]), True)
        chol, l_inv, s = solver._step(psi, True)
        assert np.prod(np.diag(chol)) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.slogdet(s)[1] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(s * np.exp(np.linalg.slogdet(psi)[1] / 4), psi, rtol=1e-12, atol=0.0)

    @staticmethod
    def count_eigenvalues(monkeypatch):
        """Per call of ``solver._step``: its result and how many times it
        called ``np.linalg.eigvalsh``."""
        calls, steps = [0], []
        eigvalsh, step = np.linalg.eigvalsh, solver._step

        def counted_eigvalsh(a, *args, **kwargs):
            calls[0] += 1
            return eigvalsh(a, *args, **kwargs)

        def counted_step(psi, case0):
            before = calls[0]
            out = step(psi, case0)
            steps.append((out, calls[0] - before))
            return out

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(solver, "_step", counted_step)
        return steps

    @pytest.mark.parametrize("f", [t_dist(3.0, 4), tyler(4)], ids=["t3", "tyler"])
    def test_well_conditioned_fit_takes_no_eigenvalues(self, f, monkeypatch):
        steps = self.count_eigenvalues(monkeypatch)
        x = np.random.default_rng(51).standard_normal((200, 4)) * [1.0, 10.0, 0.1, 3.0]
        est = fixed_point_solve(from_observations(x), f)
        assert est.converged and len(steps) == est.iterations > 5
        assert all(n == 0 for _, n in steps)

    @pytest.mark.parametrize("f", [t_dist(1.5, 5), tyler(5)], ids=["t1.5", "tyler"])
    def test_diverging_fit_takes_them_at_its_last_step(self, f, monkeypatch):
        steps = self.count_eigenvalues(monkeypatch)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, 5))
        x[:45] = rng.standard_normal((45, 3)) @ rng.standard_normal((3, 5))
        est = fixed_point_solve(from_observations(x), f)
        assert est.status == "diverged" and len(steps) == est.iterations
        assert steps[-1][0] is None and steps[-1][1] >= 1
        assert all(out is not None for out, _ in steps[:-1])
        assert steps[0][1] == 0
