import re

import numpy as np
import pytest

from mscatter import (
    InvalidInputError,
    SeededStream,
    SpdMatrix,
    haar_orthogonal,
    mvn,
    mvt,
    sphere,
    wishart,
)


class TestDeterminism:
    def test_identical_seed_identical_output(self):
        a = mvn(np.zeros(3), SpdMatrix(np.eye(3)), 50, SeededStream(7))
        b = mvn(np.zeros(3), SpdMatrix(np.eye(3)), 50, SeededStream(7))
        assert np.array_equal(a, b)

    def test_stream_is_consumed_sequentially(self):
        s = SeededStream(7)
        a = mvn(np.zeros(2), SpdMatrix(np.eye(2)), 5, s)
        b = mvn(np.zeros(2), SpdMatrix(np.eye(2)), 5, s)
        assert not np.array_equal(a, b)

    def test_split_streams_differ(self):
        s = SeededStream(7)
        a = s.split(1)
        b = s.split(2)
        assert a.seed != b.seed

    def test_t_and_wishart_reproducible(self):
        x1 = mvt(np.zeros(2), SpdMatrix(np.eye(2)), 3.0, 20, SeededStream(9))
        x2 = mvt(np.zeros(2), SpdMatrix(np.eye(2)), 3.0, 20, SeededStream(9))
        assert np.array_equal(x1, x2)
        w1 = wishart(SpdMatrix(np.eye(2)), 5, SeededStream(11))
        w2 = wishart(SpdMatrix(np.eye(2)), 5, SeededStream(11))
        assert np.array_equal(w1.mat, w2.mat)


class TestMvn:
    def test_mean_within_clt_bound(self):
        n = 100_000
        mu = np.array([1.0, -2.0])
        x = mvn(mu, SpdMatrix(np.eye(2)), n, SeededStream(1))
        assert np.all(np.abs(x.mean(axis=0) - mu) <= 4.0 / np.sqrt(n))

    def test_variances_match_sigma(self):
        x = mvn(np.zeros(2), SpdMatrix(np.diag([4.0, 1.0])), 100_000, SeededStream(2))
        v = x.var(axis=0)
        assert v[0] == pytest.approx(4.0, rel=0.05)
        assert v[1] == pytest.approx(1.0, rel=0.05)

    def test_dimension_check(self):
        with pytest.raises(InvalidInputError):
            mvn(np.zeros(3), SpdMatrix(np.eye(2)), 5, SeededStream(0))


class TestMvt:
    def test_variance_for_nu_over_two(self):
        nu = 5.0
        x = mvt(np.zeros(2), SpdMatrix(np.diag([2.0, 1.0])), nu, 200_000, SeededStream(3))
        target = nu / (nu - 2.0) * np.array([2.0, 1.0])
        assert np.allclose(x.var(axis=0), target, rtol=0.08)

    def test_sign_symmetry(self):
        x = mvt(np.zeros(3), SpdMatrix(np.eye(3)), 2.0, 50_000, SeededStream(4))
        signs = np.mean(np.sign(x), axis=0)
        assert np.all(np.abs(signs) <= 0.02)

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(InvalidInputError):
            mvt(np.zeros(2), SpdMatrix(np.eye(2)), 0.0, 5, SeededStream(0))

    @pytest.mark.parametrize("mu, shape", [(np.zeros(3), "(3,)"), (0.0, "()")], ids=["length", "scalar"])
    def test_mu_checked_as_mvn_checks_it(self, mu, shape):
        for draw in (lambda: mvn(mu, np.eye(2), 5, SeededStream(0)),
                     lambda: mvt(mu, np.eye(2), 3.0, 5, SeededStream(0))):
            with pytest.raises(InvalidInputError, match=rf"^mu has shape {re.escape(shape)}, expected \(2,\)$"):
                draw()


class TestHaar:
    def test_orthogonality_residual(self):
        u = haar_orthogonal(5, SeededStream(5))
        assert np.max(np.abs(u.T @ u - np.eye(5))) <= 1e-12

    def test_stacked_draws(self):
        u = haar_orthogonal(3, SeededStream(6), size=100)
        assert u.shape == (100, 3, 3)
        prods = np.einsum("nij,nik->njk", u, u)
        assert np.max(np.abs(prods - np.eye(3))) <= 1e-12

    def test_rotation_invariance_of_first_column(self):
        # The first column is uniform on the sphere: its coordinates have
        # mean 0 and variance 1/q.
        q = 4
        u = haar_orthogonal(q, SeededStream(7), size=20_000)
        col = u[:, :, 0]
        assert np.all(np.abs(col.mean(axis=0)) <= 0.02)
        assert np.allclose(col.var(axis=0), 1.0 / q, atol=0.01)

    def test_second_moment_of_entries(self):
        q = 3
        u = haar_orthogonal(q, SeededStream(8), size=20_000)
        assert np.allclose((u**2).mean(axis=0), 1.0 / q, atol=0.01)


class TestSphereAndWishart:
    def test_sphere_norms(self):
        x = sphere(4, 1000, SeededStream(9))
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0)

    def test_wishart_mean(self):
        sigma = SpdMatrix(np.diag([2.0, 1.0]))
        m = 6
        draws = np.stack(
            [wishart(sigma, m, SeededStream(100 + i)).mat for i in range(4000)]
        )
        assert np.allclose(draws.mean(axis=0), m * sigma.mat, atol=0.2)

    def test_wishart_rank(self):
        s = SpdMatrix(np.eye(4))
        low = wishart(s, 2, SeededStream(10))
        full = wishart(s, 6, SeededStream(11))
        assert np.linalg.matrix_rank(low.mat, tol=1e-8) == 2
        assert np.linalg.matrix_rank(full.mat, tol=1e-8) == 4

    def test_wishart_dof_floor(self):
        with pytest.raises(InvalidInputError):
            wishart(SpdMatrix(np.eye(2)), 0, SeededStream(0))
