import math

import numpy as np
import pytest

from mscatter import (
    DimensionMismatchError,
    InvalidInputError,
    NotPositiveDefiniteError,
    PsdAtom,
    RangeError,
    SpdMatrix,
    SymMatrix,
    inner,
    solve_trace,
    spectral,
    sym_exp,
    sym_log,
)
from mscatter.symmat import clip_psd_dust


def random_sym(rng, q, scale=1.0):
    a = rng.standard_normal((q, q)) * scale
    return (a + a.T) / 2.0


def series_exp(a, terms=30):
    """Oracle: truncated power series sum A^k / k!."""
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


class TestTypes:
    def test_symmetrizes_on_construction(self):
        s = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
        assert np.allclose(s.mat, [[1.0, 1.0], [1.0, 3.0]])
        assert s.mat.flags.writeable is False

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_psd_atom_clips_dust(self):
        a = np.array([[1.0, 0.0], [0.0, -1e-12]])
        atom = PsdAtom(a)
        assert np.linalg.eigvalsh(atom.mat)[0] >= 0.0
        assert atom.trace == pytest.approx(np.linalg.eigvalsh(atom.mat).sum(), rel=1e-12)

    def test_psd_atom_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            PsdAtom([[1.0, 0.0], [0.0, -0.5]])

    def test_spd_requires_positive_definite(self):
        SpdMatrix(np.eye(3))
        with pytest.raises(NotPositiveDefiniteError):
            SpdMatrix([[1.0, 0.0], [0.0, 0.0]])

    def test_spd_cached_solves(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((4, 4))
        s = SpdMatrix(b @ b.T + 4 * np.eye(4))
        x = rng.standard_normal(4)
        assert np.allclose(s.mat @ s.solve(x), x)
        assert s.logdet == pytest.approx(math.log(np.linalg.det(s.mat)), rel=1e-10)
        assert np.allclose(s.sqrt() @ s.sqrt(), s.mat)
        assert np.allclose(s.inv_sqrt() @ s.mat @ s.inv_sqrt(), np.eye(4), atol=1e-12)


class TestClipPsdDust:
    def stack(self):
        # Rank-one atoms carry negative eigenvalue dust of rounding size.
        y = np.random.default_rng(9).standard_normal((50, 5))
        return np.einsum("mi,mj->mij", y, y)

    def test_stack_matches_single_matrices(self):
        atoms = self.stack()
        clipped = clip_psd_dust(atoms)
        one_by_one = np.stack([clip_psd_dust(a) for a in atoms])
        assert np.any(np.linalg.eigvalsh(atoms)[:, 0] < 0.0)  # the clipping path runs
        assert np.max(np.abs(clipped - one_by_one)) <= 1e-15 * np.max(np.abs(one_by_one))

    def test_stack_with_one_indefinite_atom_raises(self):
        atoms = self.stack()
        atoms[7] -= 1e-6 * np.linalg.eigvalsh(atoms[7])[-1] * np.eye(5)
        with pytest.raises(NotPositiveDefiniteError):
            clip_psd_dust(atoms)
        clip_psd_dust(atoms[:7])  # the atoms before it pass


class TestSpectral:
    def test_identity(self):
        dec = spectral(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])

    def test_already_diagonal(self):
        dec = spectral(np.diag([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))

    def test_two_by_two_by_hand(self):
        # Characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0.
        dec = spectral([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        v0 = np.array([1.0, 1.0]) / math.sqrt(2)
        v1 = np.array([1.0, -1.0]) / math.sqrt(2)
        assert abs(abs(dec.eigenvectors[:, 0] @ v0) - 1.0) < 1e-12
        assert abs(abs(dec.eigenvectors[:, 1] @ v1) - 1.0) < 1e-12

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(1)
        for q in [5] * 20 + [50]:
            a = random_sym(rng, q)
            dec = spectral(a)
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
            assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
            u = dec.eigenvectors
            assert np.max(np.abs(u.T @ u - np.eye(q))) <= 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            spectral([[np.inf, 0.0], [0.0, 1.0]])


class TestExpLog:
    def test_zero_maps_to_identity(self):
        assert np.allclose(sym_exp(np.zeros((3, 3))).mat, np.eye(3))

    def test_diagonal_eigenvalue_map(self):
        e = sym_exp(np.diag([math.log(2.0), math.log(3.0)]))
        assert np.allclose(e.mat, np.diag([2.0, 3.0]))

    def test_off_diagonal_vs_series(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = series_exp(a)
        got = sym_exp(a).mat
        assert np.allclose(got, expected, atol=1e-14)
        assert got[0, 0] == pytest.approx(math.cosh(1.0))
        assert got[0, 1] == pytest.approx(math.sinh(1.0))

    def test_overflow_raises(self):
        with pytest.raises(RangeError):
            sym_exp(np.diag([800.0, 0.0]))

    def test_log_identity_is_zero(self):
        assert np.allclose(sym_log(np.eye(4)).mat, 0.0)

    def test_log_diagonal(self):
        s = np.diag([math.e, math.e**2])
        assert np.allclose(sym_log(s).mat, np.diag([1.0, 2.0]))

    def test_round_trip_random_spd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            b = rng.standard_normal((4, 4))
            s = b @ b.T + 0.5 * np.eye(4)
            back = sym_exp(sym_log(s)).mat
            assert np.linalg.norm(back - s) <= 1e-9 * np.linalg.norm(s)

    def test_bijection_property(self):
        # 200 draws with norm at most 3.
        rng = np.random.default_rng(3)
        for _ in range(200):
            q = int(rng.integers(1, 6))
            a = random_sym(rng, q)
            norm = np.linalg.norm(a)
            if norm > 3.0:
                a *= 3.0 / norm
            back = sym_log(sym_exp(a)).mat
            assert np.linalg.norm(back - a) <= 1e-8 * max(1.0, np.linalg.norm(a))

    def test_determinant_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = random_sym(rng, 4)
            e = sym_exp(a)
            lhs = math.log(np.linalg.det(e.mat))
            assert abs(lhs - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))

    def test_first_order_frechet_expansion(self):
        # Residual of the integral form of the derivative of exp must be
        # O(h^2); the constant is estimated at two step sizes and must be
        # stable within a factor of 4.  32-point Gauss-Legendre on [0, 1].
        rng = np.random.default_rng(5)
        nodes, wts = np.polynomial.legendre.leggauss(32)
        u = (nodes + 1.0) / 2.0
        wts = wts / 2.0
        for _ in range(5):
            a = random_sym(rng, 4)
            b_dir = random_sym(rng, 4)
            b_dir /= np.linalg.norm(b_dir)
            consts = []
            for h in (1e-2, 1e-3):
                b = h * b_dir
                integral = np.zeros((4, 4))
                for ui, wi in zip(u, wts):
                    integral += wi * (sym_exp((1 - ui) * a).mat @ b @ sym_exp(ui * a).mat)
                resid = np.linalg.norm(sym_exp(a + b).mat - sym_exp(a).mat - integral)
                consts.append(resid / h**2)
            ratio = consts[0] / consts[1]
            assert 0.25 <= ratio <= 4.0


class TestTraceForms:
    def test_solve_trace_identity(self):
        m = PsdAtom([[2.0, 1.0], [1.0, 3.0]])
        assert solve_trace(np.eye(2), m) == pytest.approx(m.trace)

    def test_solve_trace_scaling(self):
        m = np.diag([4.0, 2.0])  # trace 6
        assert solve_trace(2.0 * np.eye(2), m) == pytest.approx(3.0)

    def test_solve_trace_diagonal(self):
        # S = diag(1, 4), M = I: tr(S^-1 M) = 1 + 1/4.
        assert solve_trace(np.diag([1.0, 4.0]), np.eye(2)) == pytest.approx(1.25)

    def test_solve_trace_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_trace(np.eye(2), np.eye(3))

    def test_trace_inequality_bracketing(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            b = rng.standard_normal((4, 4))
            s = SpdMatrix(b @ b.T + 0.1 * np.eye(4))
            c = rng.standard_normal((4, 2))
            m = PsdAtom(c @ c.T)
            lam = np.linalg.eigvalsh(s.mat)
            val = solve_trace(s, m)
            assert m.trace / lam[-1] - 1e-10 <= val <= m.trace / lam[0] + 1e-10

    def test_inner(self):
        assert inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
        assert inner(np.eye(2), np.zeros((2, 2))) == pytest.approx(0.0)
        a = np.array([[1.0, 2.0], [2.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert inner(a, b) == pytest.approx(4.0)
        with pytest.raises(DimensionMismatchError):
            inner(np.eye(2), np.eye(3))

    def test_inner_is_squared_frobenius(self):
        rng = np.random.default_rng(7)
        a = random_sym(rng, 5)
        assert inner(a, a) == pytest.approx(np.linalg.norm(a) ** 2)
