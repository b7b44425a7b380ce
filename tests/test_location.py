import math

import numpy as np
import pytest

from mscatter import (
    InvalidInputError,
    SeededStream,
    SolverConfig,
    SpdMatrix,
    augment,
    check_location_existence,
    criterion,
    estimate_location_scatter,
    location_criterion,
    mvt,
)

TIGHT = SolverConfig(tol_fixed_point=1e-13, tol_gradient=1e-12, max_iter=5000)


def gamma_of(mu, sigma):
    q = len(mu)
    g = np.empty((q + 1, q + 1))
    g[:q, :q] = sigma + np.outer(mu, mu)
    g[:q, q] = mu
    g[q, :q] = mu
    g[q, q] = 1.0
    return g


class TestAugment:
    def test_zero_maps_to_corner_atom(self):
        prob = augment(np.zeros((1, 3)), nu=2.0)
        e4 = np.zeros((4, 4))
        e4[3, 3] = 1.0
        assert np.allclose(prob.q_aug.atoms[0], e4)

    def test_unit_vector_outer_product(self):
        prob = augment(np.array([[1.0, 0.0]]), nu=2.0)
        expected = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        assert np.allclose(prob.q_aug.atoms[0], expected)

    def test_augmented_rho_families(self):
        assert augment(np.zeros((1, 2)), nu=1.0).augmented_rho.kind == "tyler"
        f = augment(np.zeros((1, 2)), nu=3.0).augmented_rho
        assert f.kind == "t"
        assert f.params == (2.0, 3)

    def test_corner_entries_are_one(self):
        rng = np.random.default_rng(0)
        prob = augment(rng.standard_normal((7, 3)), nu=1.5)
        assert np.allclose(prob.q_aug.atoms[:, -1, -1], 1.0)

    def test_mahalanobis_identity(self):
        # y^T Gamma^-1 y = (x - mu)^T Sigma^-1 (x - mu) + 1 for random inputs.
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = int(rng.integers(1, 5))
            x = rng.standard_normal(q)
            mu = rng.standard_normal(q)
            b = rng.standard_normal((q, q))
            sigma = b @ b.T + np.eye(q)
            g = gamma_of(mu, sigma)
            y = np.append(x, 1.0)
            lhs = y @ np.linalg.solve(g, y)
            rhs = (x - mu) @ np.linalg.solve(sigma, x - mu) + 1.0
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_nu_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            augment(np.zeros((2, 2)), nu=0.5)


class TestLocationExistence:
    def test_general_position_satisfied(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 2))
        rep = check_location_existence(x, nu=1.0)
        assert rep.verdict == "satisfied"

    def test_heavy_point_mass_violated(self):
        # Half the data at one point in R^2, nu = 1: 1/2 >= (0 + 1)/(2 + 1).
        x = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])
        rep = check_location_existence(x, nu=1.0)
        assert rep.verdict == "violated"

    def test_two_symmetric_points_r1_nu2(self):
        # Each point carries 1/2 < (0 + 2)/(1 + 2).
        x = np.array([[1.0], [-1.0]])
        rep = check_location_existence(x, nu=2.0)
        assert rep.verdict == "satisfied"

    def test_affine_flat_mass(self):
        # Five of six points on the horizontal line x2 = 1 in R^2, nu = 1:
        # 5/6 >= (1 + 1)/(2 + 1) = 2/3.
        x = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [4.0, 1.0],
                      [0.0, 3.0]])
        rep = check_location_existence(x, nu=1.0)
        assert rep.verdict == "violated"


class TestEstimate:
    def test_sign_symmetric_data_centers_at_zero(self):
        rng = np.random.default_rng(3)
        half = rng.standard_normal((15, 3))
        x = np.vstack([half, -half])
        for nu in (1.0, 3.0):
            est = estimate_location_scatter(x, nu, TIGHT)
            assert est.converged
            assert np.max(np.abs(est.mu)) <= 1e-9

    def test_corner_entry_is_one_for_nu_above_one(self):
        rng = np.random.default_rng(4)
        x = mvt(np.array([1.0, -0.5]), SpdMatrix(np.diag([2.0, 1.0])), 3.0, 200,
                SeededStream(5))
        est = estimate_location_scatter(x, 2.0, TIGHT)
        assert est.converged
        assert abs(est.gamma.mat[-1, -1] - 1.0) <= 1e-8

    def test_gamma_block_reconstruction(self):
        x = mvt(np.array([0.5, 0.0]), SpdMatrix(np.eye(2)), 2.0, 100, SeededStream(6))
        for nu in (1.0, 2.0):
            est = estimate_location_scatter(x, nu, TIGHT)
            assert est.converged
            recon = gamma_of(est.mu, est.sigma.mat)
            assert np.max(np.abs(recon - est.gamma.mat)) <= 1e-8

    def test_spherical_t_recovers_center_and_shape(self):
        x = mvt(np.zeros(3), SpdMatrix(np.eye(3)), 3.0, 2000, SeededStream(7))
        est = estimate_location_scatter(x, 3.0, TIGHT)
        assert est.converged
        assert np.linalg.norm(est.mu) <= 0.1
        c = np.trace(est.sigma.mat) / 3.0
        assert c > 0
        assert np.linalg.norm(est.sigma.mat - c * np.eye(3)) <= 0.15 * c

    def test_affine_equivariance(self):
        rng = np.random.default_rng(8)
        x = mvt(np.zeros(2), SpdMatrix(np.eye(2)), 3.0, 60, SeededStream(9))
        base = estimate_location_scatter(x, 3.0, TIGHT)
        for _ in range(3):
            a = rng.standard_normal(2)
            b = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            est = estimate_location_scatter(x @ b.T + a, 3.0, TIGHT)
            assert np.max(np.abs(est.mu - (a + b @ base.mu))) <= 1e-7
            assert np.max(np.abs(est.sigma.mat - b @ base.sigma.mat @ b.T)) <= 1e-7

    def test_nu_one_scale_handling(self):
        # The inner Case 0 solve normalizes det(Gamma) = 1; the corner
        # rescaling must make the corner exactly one and leave (mu, Sigma)
        # well defined.
        x = mvt(np.array([2.0, -1.0]), SpdMatrix(np.diag([1.0, 3.0])), 1.0, 150,
                SeededStream(10))
        est = estimate_location_scatter(x, 1.0, TIGHT)
        assert est.converged
        assert est.gamma.mat[-1, -1] == pytest.approx(1.0, abs=1e-14)
        assert est.sigma is not None

    def test_existence_violation_propagates(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])
        est = estimate_location_scatter(x, 1.0)
        assert est.status == "existence_violated"
        assert est.mu is None and est.sigma is None


class TestCriterionBridge:
    def test_direct_equals_augmented(self):
        # L(mu, Sigma, P) computed directly must match the augmented scatter
        # criterion at Gamma for 50 random parameter pairs.
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20, 2))
        for nu in (1.0, 2.5):
            prob = augment(x, nu)
            for _ in range(25):
                mu = rng.standard_normal(2)
                b = rng.standard_normal((2, 2))
                sigma = b @ b.T + 0.5 * np.eye(2)
                direct = location_criterion(mu, sigma, x, nu)
                via_gamma = criterion(gamma_of(mu, sigma), prob.q_aug, prob.augmented_rho)
                assert direct == pytest.approx(via_gamma, abs=1e-9)

    def test_estimate_minimizes_direct_criterion(self):
        x = mvt(np.zeros(2), SpdMatrix(np.eye(2)), 2.0, 80, SeededStream(12))
        est = estimate_location_scatter(x, 2.0, TIGHT)
        best = location_criterion(est.mu, est.sigma.mat, x, 2.0)
        rng = np.random.default_rng(13)
        for _ in range(10):
            mu = est.mu + 0.1 * rng.standard_normal(2)
            sigma = est.sigma.mat + 0.05 * np.eye(2)
            assert location_criterion(mu, sigma, x, 2.0) >= best - 1e-10


class TestAugmentedRhoShift:
    def test_shifted_loss_identity(self):
        # The augmented loss evaluated at s equals the base loss at s - 1.
        from mscatter.location import augmented_rho
        from mscatter import t_dist

        grid = np.linspace(1.2, 50.0, 40)
        for nu in (1.0, 2.0, 4.5):
            aug = augmented_rho(nu, 3)
            base = t_dist(nu, 3)
            lhs = np.asarray(aug.rho(grid))
            rhs = np.asarray(base.rho(grid - 1.0))
            assert np.allclose(lhs, rhs, atol=1e-12)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestShiftAndScale:
    """Location fits run where the augmented mean atom is the identity, so a
    shift of the origin or a change of units does not stop them."""

    def test_shifted_rows_converge_and_are_certified(self):
        x = np.random.default_rng(0).standard_normal((50, 3)) + 1000.0
        est = estimate_location_scatter(x, 3.0)
        assert est.converged
        assert (est.inner.existence.verdict, est.inner.existence.method) == (
            "satisfied", "sufficient_condition")

    def test_shifted_rows_give_no_witness(self):
        x = np.random.default_rng(0).standard_normal((50, 3)) + 1e4
        assert check_location_existence(x, 3.0).witnesses == ()

    @pytest.mark.parametrize("shift, scale", [(1e3, 1.0), (0.0, 1e-6)], ids=["+1e3", "x1e-6"])
    def test_identity_start_follows_the_unit_fit(self, shift, scale):
        x = np.random.default_rng(1).standard_normal((300, 20))
        base = estimate_location_scatter(x, 3.0)
        est = estimate_location_scatter(scale * x + shift, 3.0)
        assert base.converged and est.converged
        assert rel(est.sigma.mat, scale**2 * base.sigma.mat) <= 1e-8

    def test_mean_atom_start_is_unit_free(self):
        x = np.random.default_rng(1).standard_normal((300, 20))
        cfg = SolverConfig(start="mean_atom")
        base = estimate_location_scatter(x, 3.0, cfg)
        assert base.converged
        for scale in (1e6, 1e-6, 1e-9, 1e-10):
            est = estimate_location_scatter(scale * x, 3.0, cfg)
            assert est.converged and est.iterations == base.iterations
            assert rel(est.sigma.mat, scale**2 * base.sigma.mat) <= 1e-12
