import itertools
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mscatter import (
    DimensionMismatchError,
    DomainError,
    InvalidInputError,
    InvalidRegimeError,
    MatrixDistribution,
    SeededStream,
    SolverConfig,
    SpdMatrix,
    acov_scatter,
    build_kstat,
    criterion,
    custom,
    estimate_location_scatter,
    fixed_point_solve,
    from_observations,
    gaussian,
    hessian,
    influence_k1,
    influence_kge2,
    location_influence,
    mvn,
    mvt,
    orth_hessian_coeffs,
    psi_map,
    sample_covariance,
    spherical_constants,
    t_dist,
    tyler,
    weibull,
)
from mscatter import asymptotics, solver, symmat
from mscatter.asymptotics import _inner_average
from mscatter.location import augmented_rho

TIGHT = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12, max_iter=8000)


def planar_design(radii=None, antipodal=False):
    """Six equally spaced planar directions: an exact degree-4 design, so
    direction averages of the quartic Hessian integrands equal their
    rotation-invariant values."""
    ang = np.arange(6) * math.pi / 6.0
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if radii is None:
        pts = dirs
    else:
        pts = np.concatenate([math.sqrt(r) * dirs for r in radii])
    if antipodal:
        pts = np.vstack([pts, -pts])
    return pts


def assert_se_in_acov_order(rep, n):
    """n se_sigma[i, j]^2 is the acov diagonal entry of pair (i, j), the pairs
    i <= j taken in row-major order."""
    q = rep.se_sigma.shape[0]
    pairs = [(i, j) for i in range(q) for j in range(i, q)]
    assert rep.acov.shape == (len(pairs), len(pairs))
    for pos, (i, j) in enumerate(pairs):
        assert n * rep.se_sigma[i, j] ** 2 == pytest.approx(rep.acov[pos, pos], rel=1e-12)
        assert rep.se_sigma[j, i] == rep.se_sigma[i, j]


def trace_free_part(x):
    q = len(x)
    return np.outer(x, x) - (x @ x) / q * np.eye(q)


class TestInfluenceK1:
    def test_gaussian_surrogate_identity_hessian(self):
        # With rho' = 1 and rho'' = 0 the operator is the identity once the
        # mean atom is I, so Z(x) = x x^T - I.
        q = MatrixDistribution(np.stack([np.eye(3)]))
        x = np.array([0.5, -1.0, 2.0])
        z = influence_k1(q, gaussian(), x).mat
        assert np.allclose(z, np.outer(x, x) - np.eye(3), atol=1e-12)

    def test_case0_rank_one_spherical_closed_form(self):
        # Z(x) = ((q+2)/|x|^2) A0(x) when the Hessian is q/(q+2) on the
        # trace-free space.
        q = from_observations(planar_design())
        h = hessian(q, tyler(2))
        x = np.array([0.3, -0.8])
        z = influence_k1(q, tyler(2), x, hess=h).mat
        expected = (2 + 2) / (x @ x) * trace_free_part(x)
        assert np.allclose(z, expected, atol=1e-12)
        with pytest.raises(Exception):
            influence_k1(q, tyler(2), np.zeros(2))

    def test_t_spherical_closed_form(self):
        # Standardize an exact-design t problem, then compare against
        # (nu + s)^{-1} (c0 A0(x) + c1 a(x) I).
        nu = 2.0
        pts = planar_design(radii=[0.5, 1.3, 2.6])
        f = t_dist(nu, 2)
        est = fixed_point_solve(from_observations(pts), f, TIGHT)
        assert est.converged
        x_std = pts @ est.sigma.inv_sqrt()
        q_std = from_observations(x_std)
        h = hessian(q_std, f)
        r = np.einsum("ni,ni->n", x_std, x_std)
        sc = spherical_constants(r, nu, 2)
        for i in (0, 7, 11):
            x = x_std[i]
            s = x @ x
            z = influence_k1(q_std, f, x, hess=h).mat
            expected = (sc.c0 * trace_free_part(x) + sc.c1 * (s / 2 - 1) * np.eye(2)) / (nu + s)
            assert np.max(np.abs(z - expected)) <= 1e-10

    def test_case0_result_is_trace_free(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        f = tyler(3)
        est = fixed_point_solve(from_observations(x), f, TIGHT)
        x_std = x @ est.sigma.inv_sqrt()
        q_std = from_observations(x_std)
        z = influence_k1(q_std, f, x_std[3]).mat
        assert abs(np.trace(z)) <= 1e-12


class TestInfluenceKge2:
    def test_centering_telescopes_with_full_enumeration(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 2))
        f = t_dist(2.0, 2)
        q2 = build_kstat(x, 2, cap=10_000)
        est = fixed_point_solve(q2, f, TIGHT)
        assert est.converged
        x_std = x @ est.sigma.inv_sqrt()
        q_std = build_kstat(x_std, 2, cap=10_000)
        h = hessian(q_std, f)
        total = np.zeros((2, 2))
        for i in range(30):
            total += influence_kge2(
                x_std, f, 2, x_std[i], inner_cap=10_000, hess=h, exclude=i
            ).mat
        assert np.linalg.norm(total / 30) <= 1e-6

    def test_case0_spherical_structure(self):
        # For spherical data the order-2 influence is z0(s) x x^T + z1(s) I
        # with z1 = -s z0 / q under the scale-invariant loss: trace-free and
        # proportional to A0(x).
        x = mvn(np.zeros(2), SpdMatrix(np.eye(2)), 4000, SeededStream(2))
        f = tyler(2)
        q2 = build_kstat(x, 2, cap=20_000, seed=3)
        est = fixed_point_solve(q2, f, SolverConfig(tol_fixed_point=1e-12, max_iter=2000))
        assert est.converged
        x_std = x @ est.sigma.inv_sqrt()
        q_std = build_kstat(x_std, 2, cap=20_000, seed=3)
        h = hessian(q_std, f)
        rng = np.random.default_rng(4)
        for _ in range(3):
            point = rng.standard_normal(2) * 1.5
            z = influence_kge2(x_std, f, 2, point, inner_cap=3000, seed=5, hess=h).mat
            assert abs(np.trace(z)) <= 1e-10
            a0 = trace_free_part(point)
            a0 /= np.linalg.norm(a0)
            coef = float(np.sum(z * a0))
            resid = np.linalg.norm(z - coef * a0) / np.linalg.norm(z)
            assert resid <= 0.15

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((60, 2))
        f = t_dist(3.0, 2)
        q2 = build_kstat(x, 2, cap=500, seed=7)
        h = hessian(q2, f)
        point = np.array([0.4, 1.1])
        a = influence_kge2(x, f, 2, point, inner_cap=20, seed=8, hess=h).mat
        b = influence_kge2(x, f, 2, point, inner_cap=20, seed=8, hess=h).mat
        c = influence_kge2(x, f, 2, point, inner_cap=20, seed=9, hess=h).mat
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_default_hessian_is_acov_scatters(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((15, 3))
        f = tyler(3)
        est = fixed_point_solve(build_kstat(x, 2), f, TIGHT)
        rep = acov_scatter(x, est, f, k=2, inner_cap=50)
        x_std = x @ rep.whitening
        z = influence_kge2(x_std, f, 2, x_std[4], inner_cap=50, exclude=4).mat
        assert np.linalg.norm(z - rep.influence[4]) <= 1e-12 * np.linalg.norm(z)


class TestSphericalConstants:
    def test_nu_zero_values(self):
        sc = spherical_constants([1.0, 2.0, 3.0], 0.0, 3)
        assert sc.kappa == 0.0
        assert sc.c1 == 0.0
        assert sc.c0 == pytest.approx(5.0)  # q + 2
        assert sc.d1 == pytest.approx(0.0)
        assert sc.d0 == pytest.approx(3.0 / 5.0)

    def test_point_mass_kappa(self):
        sc = spherical_constants([2.0], 1.0, 2)
        assert sc.kappa == pytest.approx(1.0 / 3.0)

    def test_kappa_against_quadrature_oracle(self):
        from scipy.integrate import quad
        from scipy.stats import chi2

        nu, q = 3.0, 3
        r2 = np.sum(mvn(np.zeros(q), SpdMatrix(np.eye(q)), 100_000, SeededStream(10)) ** 2, axis=1)
        sc = spherical_constants(r2, nu, q)
        oracle, _ = quad(lambda s: (nu + q) * nu / (nu + s) ** 2 * chi2.pdf(s, q), 0, np.inf)
        assert sc.kappa == pytest.approx(oracle, rel=0.01)

    def test_invalid_regime_mass_at_zero(self):
        # kappa = (nu + q)/nu > 1 for a point mass at radius 0.
        with pytest.raises(InvalidRegimeError):
            spherical_constants([0.0], 1.0, 2)

    def test_c2_none_for_nu_zero_in_two_dims(self):
        sc = spherical_constants([1.0, 4.0], 0.0, 2)
        assert sc.c2 is None

    def test_c2_invalid_regime_for_positive_nu(self):
        # Huge radii push kappa to 0, so q - 2(1 - kappa) -> 0- for q = 2.
        with pytest.raises(InvalidRegimeError):
            spherical_constants([1e12], 1.0, 2)

    def test_weights_respected(self):
        a = spherical_constants([1.0, 5.0], 2.0, 3, weights=[0.5, 0.5])
        b = spherical_constants([1.0, 1.0, 5.0, 5.0], 2.0, 3)
        assert a.kappa == pytest.approx(b.kappa)


class TestOrthHessianCoeffs:
    def test_case0_d1_vanishes(self):
        rng = np.random.default_rng(11)
        q = from_observations(rng.standard_normal((15, 3)))
        d0, d1 = orth_hessian_coeffs(q, tyler(3))
        assert d1 == pytest.approx(0.0, abs=1e-12)

    def test_case0_rank_one_d0(self):
        q = from_observations(planar_design())
        d0, d1 = orth_hessian_coeffs(q, tyler(2))
        assert d0 == pytest.approx(2.0 / 4.0)

    def test_matches_materialized_hessian_on_design(self):
        nu = 2.0
        pts = planar_design(radii=[0.5, 1.3, 2.6])
        f = t_dist(nu, 2)
        est = fixed_point_solve(from_observations(pts), f, TIGHT)
        x_std = pts @ est.sigma.inv_sqrt()
        q_std = from_observations(x_std)
        d0, d1 = orth_hessian_coeffs(q_std, f)
        sc = spherical_constants(np.einsum("ni,ni->n", x_std, x_std), nu, 2)
        assert d0 == pytest.approx(sc.d0, abs=1e-12)
        assert d1 == pytest.approx(sc.d1, abs=1e-12)
        h = hessian(q_std, f)
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 2))
        a = (a + a.T) / 2.0
        a0 = a - np.trace(a) / 2.0 * np.eye(2)
        assert np.allclose(h.apply(a0), d0 * a0, atol=1e-8)
        assert np.allclose(h.apply(np.eye(2)), d1 * np.eye(2), atol=1e-8)

    def test_needs_two_dims(self):
        q = MatrixDistribution(np.ones((1, 1, 1)))
        with pytest.raises(InvalidInputError):
            orth_hessian_coeffs(q, tyler(1))


class TestAcovScatter:
    def test_design_closed_form_consistency(self):
        # Case 0 influence depends only on direction; on design data the
        # computed influence matrices must equal the closed form exactly.
        pts = planar_design(radii=[1.0, 2.0])
        f = tyler(2)
        est = fixed_point_solve(from_observations(pts), f, TIGHT)
        rep = acov_scatter(pts, est, f)
        x_std = pts @ est.sigma.inv_sqrt()
        for i in range(len(pts)):
            x = x_std[i]
            expected = 4.0 / (x @ x) * trace_free_part(x)
            assert np.max(np.abs(rep.influence[i] - expected)) <= 1e-9

    def test_centering_residual_small(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((50, 3))
        f = t_dist(3.0, 3)
        est = fixed_point_solve(from_observations(x), f, TIGHT)
        rep = acov_scatter(x, est, f)
        assert rep.centering_residual <= 1e-8

    def test_report_shapes(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((40, 3))
        f = t_dist(2.0, 3)
        est = fixed_point_solve(from_observations(x), f, TIGHT)
        rep = acov_scatter(x, est, f)
        p = 3 * 4 // 2
        assert rep.influence.shape == (40, 3, 3)
        assert rep.acov.shape == (p, p)
        assert rep.se_sigma.shape == (3, 3)
        assert rep.se_mu is None
        assert np.all(np.linalg.eigvalsh((rep.acov + rep.acov.T) / 2) >= -1e-10)

    def test_congruence_equivariance(self):
        # Transforming the data by B maps the original-coordinate influence
        # matrices to B Z B^T exactly.
        rng = np.random.default_rng(15)
        x = rng.standard_normal((30, 2))
        f = t_dist(2.0, 2)
        b = np.array([[2.0, 0.5], [0.0, 1.0]])
        est1 = fixed_point_solve(from_observations(x), f, TIGHT)
        rep1 = acov_scatter(x, est1, f)
        est2 = fixed_point_solve(from_observations(x @ b.T), f, TIGHT)
        rep2 = acov_scatter(x @ b.T, est2, f)
        root1 = est1.sigma.sqrt()
        root2 = est2.sigma.sqrt()
        z1 = np.einsum("ij,njk,kl->nil", root1, rep1.influence, root1)
        z2 = np.einsum("ij,njk,kl->nil", root2, rep2.influence, root2)
        assert np.max(np.abs(z2 - np.einsum("ij,njk,lk->nil", b, z1, b))) <= 1e-7

    def test_k2_report(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((25, 2))
        f = tyler(2)
        q2 = build_kstat(x, 2, cap=1000)
        est = fixed_point_solve(q2, f, TIGHT)
        rep = acov_scatter(x, est, f, k=2, inner_cap=1000)
        assert rep.k == 2
        assert rep.plugin_inner
        assert rep.centering_residual <= 1e-6

    def test_requires_convergence(self):
        x = np.eye(2)
        est = fixed_point_solve(from_observations(x), tyler(2))
        with pytest.raises(InvalidInputError):
            acov_scatter(x, est, tyler(2))

    def test_se_layout_matches_acov_order(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((40, 3)) * [1.0, 2.0, 0.5]
        f = t_dist(2.0, 3)
        est = fixed_point_solve(from_observations(x), f, TIGHT)
        rep = acov_scatter(x, est, f)
        assert_se_in_acov_order(rep, len(x))

    @pytest.mark.parametrize("k", [1, 2])
    def test_batched_solve_matches_single_point_influence(self, k):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((15, 3))
        f = tyler(3)
        q = from_observations(x) if k == 1 else build_kstat(x, 2, cap=1000)
        est = fixed_point_solve(q, f, TIGHT)
        rep = acov_scatter(x, est, f, k=k, inner_cap=5, seed=3)
        assert np.array_equal(rep.whitening, est.sigma.inv_sqrt())
        x_std = x @ rep.whitening
        q_std = from_observations(x_std) if k == 1 else build_kstat(x_std, 2, cap=200_000, seed=3)
        h = hessian(q_std, f)
        for i in range(len(x)):
            if k == 1:
                z = influence_k1(q_std, f, x_std[i], hess=h)
            else:
                z = influence_kge2(x_std, f, 2, x_std[i], inner_cap=5, seed=4 + i,
                                   hess=h, exclude=i)
            assert np.max(np.abs(rep.influence[i] - z.mat)) <= 1e-12 * np.max(np.abs(z.mat))


def plugin_average(x_std, f, k, x, exclude):
    """Psi(I, .) - I over the sample covariances S(x, X_J), one subset J at a
    time over all (k-1)-subsets of the rows other than ``exclude``; a zero S
    adds nothing but still counts in the mean."""
    others = np.delete(x_std, exclude, axis=0) if exclude is not None else x_std
    subsets = list(itertools.combinations(range(len(others)), k - 1))
    acc = np.zeros((len(x), len(x)))
    for j in subsets:
        s = sample_covariance(np.vstack([x, others[list(j)]])).mat
        if np.trace(s) > 0.0:
            acc += float(f.rho_prime(np.trace(s))) * s
    return acc / len(subsets) - np.eye(len(x))


class TestBatchedInnerAverages:
    def coincident_rows(self, copies):
        x = np.random.default_rng(31).standard_normal((9, 3))
        x[1:copies] = x[0]
        return x

    def test_case0_zero_covariance_raises(self):
        f = tyler(3)
        x = self.coincident_rows(3)  # the triple of copies has covariance zero
        est = fixed_point_solve(build_kstat(self.coincident_rows(1), 3), f, TIGHT)
        with pytest.raises(DomainError):
            acov_scatter(x, est, f, k=3)
        # Two copies: S(x_0, x_0, x_1) is zero once x_0 itself is not excluded.
        x = self.coincident_rows(2)
        h = hessian(build_kstat(x, 3), f)
        with pytest.raises(DomainError):
            influence_kge2(x, f, 3, x[0], hess=h)
        influence_kge2(x, f, 3, x[0], hess=h, exclude=0)

    def test_case1_drops_zero_covariances(self):
        f = t_dist(3.0, 3)
        x = self.coincident_rows(3)
        est = fixed_point_solve(build_kstat(x, 3), f, TIGHT)
        rep = acov_scatter(x, est, f, k=3)
        assert np.all(np.isfinite(rep.se_sigma))
        x_std = x @ rep.whitening
        got = _inner_average(x_std, f, 3, x_std, 5000, [0] * len(x), np.arange(len(x)))
        for i in range(len(x)):
            want = plugin_average(x_std, f, 3, x_std[i], i)
            assert np.max(np.abs(got[i] - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("inner_cap, entries", [(5000, None), (40, 400)])
    def test_blocks_match_single_points(self, inner_cap, entries, monkeypatch):
        # 120 rows in R^3, k = 2: 119 inner subsets of 3 entries each a row.
        # Uncapped, the default block holds 183 rows, so the 120 rows take one
        # block; 400 entries take 3 rows a block, and with a cap of 40 inner
        # subsets drawn per row, a block of 3 rows needs 3 seeds.
        if entries is not None:
            monkeypatch.setattr(symmat, "_BLOCK_ENTRIES", entries)
        x = np.random.default_rng(32).standard_normal((120, 3)) * [1.0, 2.0, 0.5]
        n, f = len(x), tyler(3)
        m = min(n - 1, inner_cap)
        assert len(symmat.stack_blocks(n, m * 3)) == (1 if entries is None else 40)
        est = fixed_point_solve(build_kstat(x, 2), f, TIGHT)
        rep = acov_scatter(x, est, f, k=2, inner_cap=inner_cap, seed=5)
        x_std = x @ rep.whitening
        h = hessian(build_kstat(x_std, 2, seed=5), f)
        for i in range(0, n, 7):
            z = influence_kge2(x_std, f, 2, x_std[i], inner_cap=inner_cap, seed=6 + i,
                               hess=h, exclude=i)
            assert np.max(np.abs(rep.influence[i] - z.mat)) <= 1e-12 * np.max(np.abs(z.mat))

    def test_rows_span_several_default_blocks(self):
        # 300 rows in R^3, k = 2: 897 entries a row, 73 rows a block.
        x = np.random.default_rng(33).standard_normal((300, 3))
        assert len(symmat.stack_blocks(300, 299 * 3)) == 5
        f = t_dist(3.0, 3)
        got = _inner_average(x, f, 2, x, 5000, [0] * 300, np.arange(300))
        for i in (0, 72, 73, 299):
            want = plugin_average(x, f, 2, x[i], i)
            assert np.max(np.abs(got[i] - want)) <= 1e-13 * np.max(np.abs(want))


class TestZeroAtomRule:
    """Atoms at the zero matrix follow one rule: Case 0 refuses them with one
    error, Case 1 drops them."""

    def test_case0_refusals_agree(self):
        f = tyler(3)
        x = np.random.default_rng(33).standard_normal((12, 3))
        q = from_observations(np.vstack([x, np.zeros((1, 3))]))
        est = fixed_point_solve(build_kstat(x, 2), f, TIGHT)
        h = hessian(build_kstat(x, 2), f)
        calls = {
            "criterion": lambda: criterion(np.eye(3), q, f),
            "hessian": lambda: hessian(q, f),
            "orth_hessian_coeffs": lambda: orth_hessian_coeffs(q, f),
            # A repeated row: the pair of copies has covariance zero.
            "acov_scatter": lambda: acov_scatter(np.vstack([x, x[:1]]), est, f, k=2),
            # x_0 paired with itself when it is not excluded.
            "influence_kge2": lambda: influence_kge2(x, f, 2, x[0], hess=h),
        }
        messages = set()
        for call in calls.values():
            with pytest.raises(DomainError) as err:
                call()
            assert type(err.value) is DomainError
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_case1_drops_zero_atoms(self):
        # A zero row only dilutes the weights of the others by n / (n + 1).
        f, n = t_dist(3.0, 3), 12
        x = np.random.default_rng(33).standard_normal((n, 3))
        q, q0 = from_observations(x), from_observations(np.vstack([x, np.zeros((1, 3))]))
        s, scale = np.diag([2.0, 1.0, 0.5]), n / (n + 1.0)
        logdet = math.log(np.linalg.det(s))
        assert criterion(s, q0, f) == pytest.approx(scale * (criterion(s, q, f) - logdet) + logdet,
                                                    rel=1e-13)
        assert np.allclose(psi_map(s, q0, f).mat, scale * psi_map(s, q, f).mat, rtol=1e-13, atol=0)
        assert np.allclose(hessian(q0, f).matrix, scale * hessian(q, f).matrix, rtol=1e-12,
                           atol=1e-15)
        d, d_zero = np.array(orth_hessian_coeffs(q, f)), np.array(orth_hessian_coeffs(q0, f))
        assert np.allclose(d_zero - 1.0, scale * (d - 1.0), rtol=1e-12, atol=0)


class TestLocationInfluence:
    def test_spherical_closed_form(self):
        # The corrected augmented influence of spherical data is
        # (nu+s)^{-1} [[c0 A0 + c1 a I, (nu+q) c2 x], [(nu+q) c2 x^T, 0]].
        # The (nu+q) factor on the location block is required for the
        # Hessian block action to cancel (and is confirmed by Monte Carlo
        # variance of the fitted center).
        for nu in (1.0, 2.0):
            pts = planar_design(radii=[0.5, 1.3, 2.6], antipodal=True)
            est = estimate_location_scatter(pts, nu, TIGHT)
            assert est.converged
            rep = location_influence(pts, nu, est)
            assert np.array_equal(rep.whitening, est.sigma.inv_sqrt())
            x_std = (pts - est.mu) @ est.sigma.inv_sqrt()
            r = np.einsum("ni,ni->n", x_std, x_std)
            sc = spherical_constants(r, nu, 2)
            for i in (0, 5, 17):
                x = x_std[i]
                s = x @ x
                expected = np.zeros((3, 3))
                expected[:2, :2] = sc.c0 * trace_free_part(x) + sc.c1 * (s / 2 - 1) * np.eye(2)
                expected[:2, 2] = (nu + 2) * sc.c2 * x
                expected[2, :2] = (nu + 2) * sc.c2 * x
                expected /= nu + s
                assert np.max(np.abs(rep.influence[i] - expected)) <= 1e-9

    def test_corner_zero_after_nu1_correction(self):
        pts = planar_design(radii=[0.7, 1.9], antipodal=True)
        est = estimate_location_scatter(pts, 1.0, TIGHT)
        rep = location_influence(pts, 1.0, est)
        assert np.max(np.abs(rep.influence[:, -1, -1])) <= 1e-12

    def test_block_parity_for_symmetric_data(self):
        # With data closed under x -> -x the scatter/corner blocks are even
        # in x and the location block is odd.
        rng = np.random.default_rng(17)
        half = rng.standard_normal((12, 2))
        x = np.vstack([half, -half])
        est = estimate_location_scatter(x, 2.0, TIGHT)
        rep = location_influence(x, 2.0, est)
        n = len(half)
        for i in range(n):
            zp, zm = rep.influence[i], rep.influence[n + i]
            assert np.max(np.abs(zp[:2, :2] - zm[:2, :2])) <= 1e-9
            assert abs(zp[2, 2] - zm[2, 2]) <= 1e-9
            assert np.max(np.abs(zp[:2, 2] + zm[:2, 2])) <= 1e-9

    def test_se_layout_matches_acov_order(self):
        x = mvt(np.array([1.0, -2.0, 0.5]), SpdMatrix(np.diag([2.0, 1.0, 0.5])), 3.0, 60,
                SeededStream(23))
        est = estimate_location_scatter(x, 3.0, TIGHT)
        rep = location_influence(x, 3.0, est)
        assert_se_in_acov_order(rep, len(x))

    def test_centering_and_se_shapes(self):
        x = mvt(np.array([1.0, -2.0]), SpdMatrix(np.diag([2.0, 1.0])), 3.0, 100,
                SeededStream(18))
        est = estimate_location_scatter(x, 3.0, TIGHT)
        rep = location_influence(x, 3.0, est)
        assert rep.centering_residual <= 1e-8
        assert rep.se_mu.shape == (2,)
        assert rep.se_sigma.shape == (2, 2)
        assert np.all(rep.se_mu > 0)

    def test_location_variance_against_monte_carlo(self):
        # 200 replications of the fitted center; its variance must match the
        # influence prediction within Monte Carlo tolerance.
        nu, q, n = 3.0, 2, 300
        cfg = SolverConfig(tol_fixed_point=1e-11, max_iter=2000)
        stream = SeededStream(19)
        mus = []
        for _ in range(200):
            x = mvt(np.zeros(q), SpdMatrix(np.eye(q)), nu, n, stream)
            mus.append(estimate_location_scatter(x, nu, cfg).mu)
        mus = np.asarray(mus)
        emp = n * mus.var(axis=0).mean()

        xref = mvt(np.zeros(q), SpdMatrix(np.eye(q)), nu, 20_000, SeededStream(20))
        est = estimate_location_scatter(xref, nu, cfg)
        rep = location_influence(xref, nu, est)
        predicted = float(np.mean(rep.influence[:, :q, q] ** 2))
        assert emp == pytest.approx(predicted, rel=0.2)


# -- the standard errors of the fit's own frame ----------------------------------
#
# ``acov_scatter`` and ``location_influence`` as they were when they whitened
# by the symmetric inverse square root of the fit and solved (n, q, q) stacks;
# they return the report's fields as a dict.


def _scores_k1(x_std: np.ndarray, f) -> np.ndarray:
    """rho'(|x|^2) x x^T - I for each row x of x_std, as an (n, q, q) stack."""
    rho_p = np.asarray(f.rho_prime(np.einsum("ni,ni->n", x_std, x_std)))
    return np.einsum("n,ni,nj->nij", rho_p, x_std, x_std) - np.eye(x_std.shape[1])


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
    """(S^-1/2, S^1/2) of a converged fit's scatter S."""
    if not estimate.converged:
        raise InvalidInputError("influence analysis requires a converged estimate")
    return estimate.sigma.inv_sqrt(), estimate.sigma.sqrt()


def reference_acov_scatter(x, estimate, f, k=1, inner_cap=5000, seed=0):
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

    return dict(
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


def reference_location_influence(x, nu, estimate):
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

    return dict(
        influence=z,
        acov=acov,
        se_sigma=se_sigma,
        se_mu=se_mu,
        whitening=white,
        center=np.array(estimate.mu),
        k=1,
        centering_residual=centering,
    )


def relative_gap(a, b):
    return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)


def assert_matches_reference(rep, ref, rtol):
    assert relative_gap(rep.acov, ref["acov"]) <= rtol
    assert np.allclose(rep.se_sigma, ref["se_sigma"], rtol=rtol, atol=0)
    if ref["se_mu"] is None:
        assert rep.se_mu is None
    else:
        assert np.allclose(rep.se_mu, ref["se_mu"], rtol=rtol, atol=0)
    assert relative_gap(rep.influence, ref["influence"]) <= rtol
    assert np.array_equal(rep.whitening, ref["whitening"])


@st.composite
def se_problems(draw):
    """(rows, nu or the loss, k, config) of one fit with standard errors: q from
    2 to 5, Tyler, t (nu 1 or 3) or Weibull 0.5 at order 1 to 3, or location
    with nu 1, 2 or 3; a budget of 1 leaves the check undecided where the
    Hessian then certifies the fit, one of 1000 mostly proves it exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = int(rng.integers(2, 6))
    location = rng.random() < 0.3
    k = 1 if location else int(rng.integers(1, 4))
    n = int(rng.integers(3 * q + 2, 40)) if k == 1 else int(rng.integers(q + 4, 18))
    x = rng.standard_normal((n, q)) * rng.uniform(0.5, 2.0, q) + rng.standard_normal(q)
    cfg = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12, max_iter=8000,
                       existence_budget=(1, 1000)[rng.integers(2)])
    if location:
        return x, float(rng.choice([1.0, 2.0, 3.0])), 1, cfg
    f = (tyler(q), t_dist(1.0, q), t_dist(3.0, q), weibull(0.5))[rng.integers(4)]
    return x, f, k, cfg


class TestFitFrame:
    """Standard errors at the Cholesky whitening of the fit, against the
    symmetric whitening of the reference functions above."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(problem=se_problems())
    def test_matches_the_symmetric_whitening(self, problem):
        x, f, k, cfg = problem
        if isinstance(f, float):
            est = estimate_location_scatter(x, f, cfg)
            fit, kind = est.inner, f"location nu={f:g}"
            assert est.converged
            rep, ref = location_influence(x, f, est), reference_location_influence(x, f, est)
        else:
            est = fixed_point_solve(from_observations(x) if k == 1 else build_kstat(x, k), f, cfg)
            fit, kind = est, f"{f.kind if f.kind != 't' else f't nu={f.params[0]:g}'} k={k}"
            assert est.converged
            rep = acov_scatter(x, est, f, k=k, inner_cap=50, seed=3)
            ref = reference_acov_scatter(x, est, f, k=k, inner_cap=50, seed=3)
        event(f"{kind}, {fit.existence.method}")
        assert_matches_reference(rep, ref, 1e-10)

    @pytest.fixture
    def hessian_builds(self, monkeypatch):
        """Every Hessian built, wherever it is looked up."""
        builds = []

        def counted(q, f):
            builds.append(q)
            return hessian(q, f)

        monkeypatch.setattr(solver, "hessian", counted)
        monkeypatch.setattr(asymptotics, "hessian", counted)
        return builds

    @staticmethod
    def certified_job(job, seed):
        """(fit, standard errors) of one fit that its Hessian certifies; a
        budget of 1 leaves the check to the certificate."""
        x = np.random.default_rng(seed).standard_normal((60, 4))
        cfg = SolverConfig(existence_budget=1)
        if job.startswith("location"):
            nu = float(job.split()[1])
            est = estimate_location_scatter(x, nu, cfg)
            return est.inner, lambda: location_influence(x, nu, est)
        f = tyler(4) if job == "tyler" else t_dist(3.0, 4)
        est = fixed_point_solve(from_observations(x), f, cfg)
        return est, lambda: acov_scatter(x, est, f)

    @pytest.mark.parametrize("job", ["tyler", "t", "location 1", "location 3"])
    def test_one_hessian_per_certified_job(self, job, hessian_builds):
        fit, standard_errors = self.certified_job(job, 40)
        rep = standard_errors()
        assert fit.existence.method == "sufficient_condition"
        assert len(hessian_builds) == 1
        assert np.all(np.isfinite(rep.se_sigma)) and np.all(rep.se_sigma > 0)

    @pytest.mark.parametrize("job", ["tyler", "t", "location 1", "location 3"])
    def test_kept_hessian_gives_the_rebuilt_standard_errors(self, job, hessian_builds, monkeypatch):
        # The certificate was built at the fit's own Cholesky whitening, so
        # the standard errors are those of a Hessian built again at T.
        fit, standard_errors = self.certified_job(job, 44)
        assert fit.existence.method == "sufficient_condition"
        kept = standard_errors()
        monkeypatch.setattr(asymptotics, "_kept", lambda *args: None)
        rebuilt = standard_errors()
        assert len(hessian_builds) == 2
        fields = ("acov", "se_sigma", "se_mu", "influence", "whitening")
        assert_matches_reference(kept, {name: getattr(rebuilt, name) for name in fields}, 1e-11)

    def test_other_rows_build_their_own_hessian(self, hessian_builds):
        x = np.random.default_rng(41).standard_normal((60, 4))
        f = t_dist(3.0, 4)
        est = fixed_point_solve(from_observations(x), f, SolverConfig(existence_budget=1))
        assert len(hessian_builds) == 1
        other = x.copy()
        other[0] *= 1.5
        rep = acov_scatter(other, est, f)
        assert len(hessian_builds) == 2
        assert_matches_reference(rep, reference_acov_scatter(other, est, f), 1e-10)

    def test_standard_errors_take_no_eigendecomposition(self, monkeypatch):
        # The standard errors use the Cholesky factor of the fit; only the
        # public influence matrices and whitening take Sigma^-1/2.
        x = np.random.default_rng(42).standard_normal((60, 4))
        f = t_dist(3.0, 4)
        est = fixed_point_solve(from_observations(x), f, TIGHT)
        loc = estimate_location_scatter(x, 3.0, TIGHT)
        refs = reference_acov_scatter(x, est, f), reference_location_influence(x, 3.0, loc)

        def refused(self):
            raise AssertionError("an eigendecomposition of the fitted scatter")

        monkeypatch.setattr(SpdMatrix, "inv_sqrt", refused)
        monkeypatch.setattr(SpdMatrix, "sqrt", refused)
        reps = acov_scatter(x, est, f), location_influence(x, 3.0, loc)
        monkeypatch.undo()
        for rep, ref in zip(reps, refs):
            assert_matches_reference(rep, ref, 1e-12)


UNIT_ROWS = np.random.default_rng(1).standard_normal((300, 20))


def scaled_standard_errors(job, scale):
    """(se_sigma, se_mu) of ``job`` on UNIT_ROWS times the column scales
    logspace(-scale, scale), divided back by those scales."""
    d = np.logspace(-scale, scale, 20)
    x = UNIT_ROWS * d
    if job == "location":
        rep = location_influence(x, 3.0, estimate_location_scatter(x, 3.0))
        return rep.se_sigma / np.outer(d, d), rep.se_mu / d
    f = tyler(20) if job == "tyler" else t_dist(3.0, 20)
    return (acov_scatter(x, fixed_point_solve(from_observations(x), f), f).se_sigma
            / np.outer(d, d)), None


class TestUnits:
    @pytest.fixture(scope="class")
    def unscaled(self):
        return {job: scaled_standard_errors(job, 0) for job in ("t", "tyler", "location")}

    @pytest.mark.parametrize("scale", [3, 4, 5, 6])
    @pytest.mark.parametrize("job", ["t", "tyler", "location"])
    def test_standard_errors_follow_column_scales(self, unscaled, job, scale):
        # The fits are equivariant to about 3e-9; the standard errors of
        # rows scaled by D are D SE D (D SE for mu) to that order.
        for got, want in zip(scaled_standard_errors(job, scale), unscaled[job]):
            if want is not None:
                assert np.allclose(got, want, rtol=1e-7, atol=0)


class TestScaledColumns:
    # Column scales 1e-5 to 1e5 (1e-6 to 1e6) put the eigenvalues of Sigma 20
    # (24) orders apart: an eigendecomposition of Sigma turns the smallest
    # negative, the SVD of its unit-free Cholesky factor keeps them positive.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [5, 6])
    def test_whitening_influence_and_gradient_are_finite(self, scale):
        x = UNIT_ROWS * np.logspace(-scale, scale, 20)
        q, f = from_observations(x), t_dist(3.0, 20)
        est = fixed_point_solve(q, f)
        loc = estimate_location_scatter(x, 3.0)
        assert est.converged and loc.converged
        for rep in (acov_scatter(x, est, f), location_influence(x, 3.0, loc)):
            assert np.all(np.isfinite(rep.whitening)) and np.all(np.isfinite(rep.influence))
        g = solver.gradient(est.sigma, q, f).mat
        assert np.linalg.norm(g) == pytest.approx(est.gradient_norm, rel=1e-12)


class TestRefusals:
    @pytest.fixture(scope="class")
    def t3_fits(self):
        x = np.random.default_rng(43).standard_normal((60, 4))
        est = fixed_point_solve(from_observations(x), t_dist(3.0, 4))
        return x, est, estimate_location_scatter(x, 3.0)

    @pytest.mark.parametrize("f", [t_dist(10.0, 4), tyler(4), t_dist(3.0, 5)],
                             ids=["t10", "tyler", "t3 of q=5"])
    def test_other_loss(self, t3_fits, f):
        x, est, _ = t3_fits
        for k in (1, 2):
            with pytest.raises(InvalidInputError, match="is not the fit's"):
                acov_scatter(x, est, f, k=k, inner_cap=20)

    def test_other_nu(self, t3_fits):
        x, _, loc = t3_fits
        with pytest.raises(InvalidInputError, match="is not the fit's"):
            location_influence(x, 5.0, loc)
        assert np.all(location_influence(x, 3.0, loc).se_mu > 0)

    def test_custom_loss_by_identity(self):
        x = np.random.default_rng(44).standard_normal((40, 3))

        def make():
            return custom(lambda s: 5.0 * np.log(2.0 + s), lambda s: 5.0 / (2.0 + s),
                          lambda s: -5.0 / (2.0 + s) ** 2, psi_infinity=5.0, dim=3)

        f = make()  # the t loss of order (2, 3)
        est = fixed_point_solve(from_observations(x), f)
        assert np.all(acov_scatter(x, est, f).se_sigma > 0)
        with pytest.raises(InvalidInputError, match="is not the fit's"):
            acov_scatter(x, est, make())
        with pytest.raises(InvalidInputError, match="is not the fit's"):
            acov_scatter(x, est, t_dist(2.0, 3))

    @pytest.mark.parametrize("bad, error", [
        (lambda x: x[:, :3], DimensionMismatchError),
        (lambda x: np.hstack([x, x[:, :1]]), DimensionMismatchError),
        (lambda x: x[0], InvalidInputError),
    ], ids=["narrow", "wide", "one row as a vector"])
    def test_rows_of_another_shape(self, t3_fits, bad, error):
        x, est, loc = t3_fits
        with pytest.raises(error):
            acov_scatter(bad(x), est, t_dist(3.0, 4))
        with pytest.raises(error):
            location_influence(bad(x), 3.0, loc)

    def test_order_below_one(self, t3_fits):
        x, est, _ = t3_fits
        with pytest.raises(InvalidInputError, match="k >= 1"):
            acov_scatter(x, est, t_dist(3.0, 4), k=0)
