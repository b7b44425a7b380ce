"""The evaluation kernel against plain numpy.

``solver._evaluate`` is the one pass over the atoms behind ``criterion``,
``psi_map``, the fit's measurement and the solver loop.  These tests hold it
to brute-force sums over the dense atoms, check that the solver loop's work
array never leaks into a returned matrix and that no distribution keeps one,
and run the whole fit against a plain-numpy fixed-point loop that must take
the same steps.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscatter import (
    MatrixDistribution,
    build_kstat,
    criterion,
    estimate_location_scatter,
    fixed_point_solve,
    from_observations,
    gaussian,
    psi_map,
    t_dist,
    tyler,
    weibull,
)
from mscatter.distribution import _frame
from mscatter.solver import _evaluate, _offset, _spd

LOSSES = {
    "tyler": tyler,
    "t": lambda q: t_dist(2.5, q),
    "gaussian": lambda q: gaussian(),
    "weibull": lambda q: weibull(0.5),
}


def brute_force(s, atoms, weights, f):
    """(L(S, Q), Psi(S, Q), the scale of the criterion's terms) summed atom by atom."""
    crit, scale, psi = 0.0, 0.0, np.zeros_like(s)
    for m, w in zip(atoms, weights):
        tr = np.trace(m)
        if tr == 0.0:  # a zero atom adds nothing under Case 1
            continue
        t = np.trace(np.linalg.solve(s, m))
        crit += w * (f.rho(t) - f.rho(tr))
        scale += w * (abs(f.rho(t)) + abs(f.rho(tr)))
        psi += w * f.rho_prime(t) * m
    logdet = np.linalg.slogdet(s)[1]
    return crit + logdet, psi, scale + abs(logdet)


@st.composite
def distributions(draw):
    """(distribution, loss name, generator) over every storage: one factor
    row per atom, k - 1 rows per k-subset, or the dense stack.  A zero row
    (k = 1) or a repeated one (the pair of copies at k = 2) is an atom at zero."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(q + 1, 9))
    k = draw(st.integers(1, min(n, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, q)) * rng.uniform(0.3, 3.0, q)
    if draw(st.booleans()):
        x[-1] = 0.0 if k == 1 else x[0]
    d = from_observations(x) if k == 1 else build_kstat(x, k)
    if draw(st.booleans()):
        d = MatrixDistribution(d.atoms, d.weights)
    has_zero = bool((d.traces == 0.0).any())
    loss = draw(st.sampled_from(["t", "gaussian", "weibull"] if has_zero else sorted(LOSSES)))
    return d, loss, rng


class TestKernel:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(distributions())
    def test_matches_brute_force(self, case):
        d, loss, rng = case
        f = LOSSES[loss](d.dim)
        b = rng.standard_normal((d.dim, d.dim))
        s = b @ b.T + 0.5 * np.eye(d.dim)
        want, want_psi, scale = brute_force(s, d.atoms, d.weights, f)
        chol, l_inv = _spd(s, d)
        value, psi = _evaluate(chol, l_inv, d, f)
        assert abs(value - _offset(d, f) - want) <= 1e-13 * scale
        assert abs(criterion(s, d, f) - want) <= 1e-13 * scale
        assert np.linalg.norm(psi - want_psi) <= 1e-13 * np.linalg.norm(want_psi)
        assert np.array_equal(psi, psi.T)
        assert np.allclose(l_inv @ np.linalg.cholesky(s), np.eye(d.dim), rtol=0, atol=1e-12)
        assert criterion(np.eye(d.dim), d, f) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_case1_zero_atoms_add_nothing(self, k):
        x = np.random.default_rng(4).standard_normal((8, 3))
        # k = 1: a zero row; k >= 2: k copies of a row, whose k-subset is zero.
        x0 = np.vstack([x, np.zeros((1, 3))]) if k == 1 else np.vstack([x] + [x[:1]] * (k - 1))
        d = from_observations(x0) if k == 1 else build_kstat(x0, k)
        assert (d.traces == 0.0).any()
        f, s = t_dist(3.0, 3), np.diag([2.0, 1.0, 0.5])
        want, want_psi, scale = brute_force(s, d.atoms, d.weights, f)
        value, psi = _evaluate(*_spd(s, d), d, f)
        assert abs(value - _offset(d, f) - want) <= 1e-13 * scale
        assert np.linalg.norm(psi - want_psi) <= 1e-13 * np.linalg.norm(want_psi)


class TestWorkArray:
    def test_psi_survives_the_next_evaluation(self):
        x = np.random.default_rng(5).standard_normal((40, 3))
        f = t_dist(3.0, 3)
        for d in (from_observations(x), build_kstat(x[:12], 3)):
            work = d._work_array()
            first = _evaluate(np.eye(3), np.eye(3), d, f, work)[1]
            kept = first.copy()
            chol = np.diag([3.0, 2.0, 1.0])
            again = _evaluate(chol, np.linalg.inv(chol), d, f, work)[1]
            assert np.array_equal(first, kept)
            assert np.array_equal(again, _evaluate(chol, np.linalg.inv(chol), d, f)[1])
            assert not np.shares_memory(work, d._rows)

    def test_distributions_keep_no_work_array(self):
        x = np.random.default_rng(6).standard_normal((40, 3)) * [1.0, 10.0, 0.1]
        d = from_observations(x)
        rows = d._rows.copy()
        f = tyler(3)
        psi = _evaluate(np.eye(3), np.eye(3), d, f)[1]
        kept = psi.copy()
        fit = fixed_point_solve(d, f)  # iterates in the frame through one work array
        assert fit.converged
        assert np.array_equal(psi, kept)
        assert np.array_equal(d._rows, rows)
        frame = _frame(d)[2]
        assert not np.shares_memory(frame._rows, d._rows)
        assert not np.shares_memory(d._work_array(), d._work_array())
        assert np.array_equal(_evaluate(np.eye(3), np.eye(3), d, f)[1], kept)

    def test_two_threads_evaluate_one_distribution(self):
        x = np.random.default_rng(7).standard_normal((3000, 4))
        d, f = from_observations(x), t_dist(3.0, 4)
        mats = [np.diag([1.0 + i, 1.0, 2.0, 0.5 + i]) for i in range(8)]
        want = [(criterion(s, d, f), psi_map(s, d, f).mat) for s in mats]
        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(lambda s: (criterion(s, d, f), psi_map(s, d, f).mat), mats * 4))
        for (c, p), (wc, wp) in zip(got, want * 4):
            assert c == wc and np.array_equal(p, wp)


def reference_fit(atoms, weights, rho_prime, case0, tol=1e-10, tol_gradient=1e-9, max_iter=500):
    """The descending fixed point S <- Psi(S) from S = I in plain numpy:
    (last iterate, number of steps) once the whitened gradient and the
    relative residual are both within tolerance."""
    q = atoms.shape[1]
    sigma = np.eye(q)
    for steps in range(max_iter + 1):
        t = np.einsum("mij,ji->m", atoms, np.linalg.inv(sigma))
        psi = np.einsum("m,mij->ij", weights * rho_prime(t), atoms)
        psi = (psi + psi.T) / 2.0
        diff = psi - sigma
        c_inv = np.linalg.inv(np.linalg.cholesky(sigma))
        if (np.linalg.norm(c_inv @ diff @ c_inv.T) <= tol_gradient
                and np.linalg.norm(diff) / np.linalg.norm(sigma) <= tol):
            return sigma, steps
        sigma = psi / np.linalg.det(psi) ** (1.0 / q) if case0 else psi
    raise AssertionError("the reference loop did not converge")


def outer_products(y):
    return y[:, :, None] * y[:, None, :]


def pair_covariances(x):
    i, j = np.triu_indices(x.shape[0], 1)
    return outer_products(x[i] - x[j]) / 2.0


class TestReferenceLoop:
    """Same iterations and the same Sigma to 1e-10 as the plain loop."""

    def check(self, est, atoms, rho_prime, case0):
        sigma, steps = reference_fit(atoms, np.full(len(atoms), 1.0 / len(atoms)), rho_prime, case0)
        assert est.status == "converged"
        assert est.iterations == steps
        assert np.linalg.norm(est.sigma.mat - sigma) <= 1e-10 * np.linalg.norm(sigma)

    def test_t3(self):
        rng = np.random.default_rng(11)
        x = rng.standard_t(3, (300, 5)) @ rng.standard_normal((5, 5))
        est = fixed_point_solve(from_observations(x), t_dist(3.0, 5))
        self.check(est, outer_products(x), lambda t: 8.0 / (3.0 + t), False)

    def test_tyler(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((200, 4)) @ np.diag([4.0, 2.0, 1.0, 0.5])
        est = fixed_point_solve(from_observations(x), tyler(4))
        self.check(est, outer_products(x), lambda t: 4.0 / t, True)

    def test_kstat_order_two(self):
        x = np.random.default_rng(13).standard_t(2, (30, 3))
        est = fixed_point_solve(build_kstat(x, 2), t_dist(2.0, 3))
        self.check(est, pair_covariances(x), lambda t: 5.0 / (2.0 + t), False)

    def test_location_scatter(self):
        rng = np.random.default_rng(14)
        x = rng.standard_t(4, (150, 3)) + [1.0, -2.0, 5.0]
        est = estimate_location_scatter(x, 4.0)
        y = np.hstack([x, np.ones((150, 1))])
        # The augmented problem: the t loss of order (nu - 1, q + 1).
        self.check(est.inner, outer_products(y), lambda t: 7.0 / (3.0 + t), False)
        assert math.isclose(est.gamma.mat[-1, -1], est.inner.sigma.mat[-1, -1])
