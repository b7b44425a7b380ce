"""The evaluation kernel against plain numpy.

``solver._evaluate`` is the one pass over the atoms behind ``criterion``,
``psi_map``, the fit's measurement and the solver loop.  These tests hold it
to brute-force sums over the dense atoms, check that a returned Psi is a
new array that the next evaluation leaves alone and that a fit leaves the
rows of Q and the memory of its frame alone, and run the whole fit against a
plain-numpy fixed-point loop that must take the same steps.  The index of the
atoms off zero that Q keeps, the kernel's bits against the kernel that redid
that index at every call, the Case 0 refusal of mass at zero, and the norm's
unscaled sum near its limits are held to their definitions at the end.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscatter import (
    DomainError,
    MatrixDistribution,
    PsdAtom,
    WishartGroup,
    build_kstat,
    criterion,
    estimate_location_scatter,
    fixed_point_solve,
    from_observations,
    from_wishart_groups,
    gaussian,
    gradient,
    hessian,
    psi_map,
    t_dist,
    tyler,
    weibull,
)
from mscatter import distribution
from mscatter.distribution import _congruence, _frame
from mscatter.solver import _evaluate, _frobenius, _offset, _spd

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
            first = _evaluate(np.eye(3), np.eye(3), d, f)[1]
            kept = first.copy()
            chol = np.diag([3.0, 2.0, 1.0])
            again = _evaluate(chol, np.linalg.inv(chol), d, f)[1]
            assert np.array_equal(first, kept)
            assert np.array_equal(again, _evaluate(chol, np.linalg.inv(chol), d, f)[1])

    def test_distributions_keep_no_work_array(self):
        x = np.random.default_rng(6).standard_normal((40, 3)) * [1.0, 10.0, 0.1]
        d = from_observations(x)
        rows = d._rows.copy()
        f = tyler(3)
        psi = _evaluate(np.eye(3), np.eye(3), d, f)[1]
        kept = psi.copy()
        fit = fixed_point_solve(d, f)  # iterates in the frame
        assert fit.converged
        assert np.array_equal(psi, kept)
        assert np.array_equal(d._rows, rows)
        frame = _frame(d)[2]
        assert not np.shares_memory(frame._rows, d._rows)
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


# -- the index of the atoms off zero, kept on Q -------------------------------------


def kept_index_designs():
    """(name, distribution) over every storage, with and without atoms at zero:
    factor rows with r = 1 (a zero row) and r = 2 (a repeated point in a
    3-subset), a dense stack with a zero atom, and Wishart groups."""
    rng = np.random.default_rng(30)
    x = rng.standard_normal((9, 3)) * [1.0, 4.0, 0.25]
    x_zero, x_twice = x.copy(), x.copy()
    x_zero[2] = 0.0
    x_twice[4] = x_twice[7] = x_twice[1]  # the 3-subset of rows 1, 4 and 7 is zero
    atoms = np.einsum("ni,nj->nij", x, x)
    atoms_zero = atoms.copy()
    atoms_zero[5] = 0.0
    return [
        ("rows", from_observations(x)),
        ("rows-zero", from_observations(x_zero)),
        ("pairs-of-rows", build_kstat(x, 3)),
        ("pairs-of-rows-zero", build_kstat(x_twice, 3)),
        ("dense", MatrixDistribution(atoms)),
        ("dense-zero", MatrixDistribution(atoms_zero)),
        ("wishart", from_wishart_groups([WishartGroup(PsdAtom(m + np.eye(3)), 4) for m in atoms[:4]])),
    ]


DESIGNS = kept_index_designs()
DESIGN_IDS = [name for name, _ in DESIGNS]


def assert_index_of(d):
    """``d._nz`` is the full slice exactly when every trace is positive, and
    otherwise the read-only mask of the positive traces."""
    positive = d.traces > 0.0
    if positive.all():
        assert d._nz == slice(None)
        return
    assert isinstance(d._nz, np.ndarray) and np.array_equal(d._nz, positive)
    assert not d._nz.flags.writeable
    with pytest.raises(ValueError):
        d._nz[0] = True


class TestKeptIndex:
    @pytest.mark.parametrize("name, d", DESIGNS, ids=DESIGN_IDS)
    def test_full_slice_exactly_when_every_trace_is_positive(self, name, d):
        assert ("zero" in name) == bool((d.traces == 0.0).any())
        assert_index_of(d)

    @pytest.mark.parametrize("name, d", DESIGNS, ids=DESIGN_IDS)
    def test_every_finish_computes_its_own(self, name, d, monkeypatch):
        calls = []
        nonzero = distribution._nonzero

        def counted(traces):
            calls.append(nonzero(traces))
            return calls[-1]

        monkeypatch.setattr(distribution, "_nonzero", counted)
        t = np.random.default_rng(31).standard_normal((3, 3)) + 3.0 * np.eye(3)
        moved = _congruence(d, t)
        assert len(calls) == 1 and moved._nz is calls[0]
        assert_index_of(moved)
        # A fresh copy of Q has no frame yet: _frame builds it by one _congruence.
        if d._rows is None:
            fresh = MatrixDistribution(d.atoms, d.weights, clip=False)
        else:
            fresh = MatrixDistribution._from_rows(d._rows, d._r, d.weights)
        assert len(calls) == 2
        framed = _frame(fresh)[2]
        assert len(calls) == 3 and framed._nz is calls[2]
        assert_index_of(framed)


def reference_kernel(chol, l_inv, q, f):
    """``solver._evaluate`` as it was before Q kept its index of the atoms off
    zero: the mask redone from the traces, the coefficients always scattered
    into zeros, and ``weighted_sum`` repeating them for every factor row."""
    nz = q.traces > 0.0
    if nz.all():
        nz = slice(None)
    elif f.case_tag == "case0":
        raise DomainError("Case 0 requires every atom to have positive trace")
    t = q.traces_under(l_inv.T @ l_inv)[nz]
    w = q.weights[nz]
    rho, rho_prime = f._rho_and_prime(t)
    crit = float(w @ np.asarray(rho)) + 2.0 * float(np.sum(np.log(np.diag(chol))))
    coeff = np.zeros(q.n_atoms)
    coeff[nz] = w * np.asarray(rho_prime)
    if q._rows is None:
        psi = (coeff @ q._atoms.reshape(q.n_atoms, -1)).reshape(q.dim, q.dim)
    else:
        psi = (q._rows * np.repeat(coeff, q._r)) @ q._rows.T
    return crit, (psi + psi.T) / 2.0


class TestLeanKernel:
    @pytest.mark.parametrize("loss", ["t", "weibull"])
    @pytest.mark.parametrize("name, d", DESIGNS, ids=DESIGN_IDS)
    def test_matches_the_reference_kernel_bit_for_bit(self, name, d, loss):
        f = LOSSES[loss](d.dim)
        rng = np.random.default_rng(32)
        for _ in range(5):
            b = rng.standard_normal((d.dim, d.dim))
            chol = np.linalg.cholesky(b @ b.T + 0.3 * np.eye(d.dim))
            l_inv = np.linalg.inv(chol)
            crit, psi = _evaluate(chol, l_inv, d, f)
            want_crit, want_psi = reference_kernel(chol, l_inv, d, f)
            assert crit == want_crit
            assert np.array_equal(psi, want_psi)

    @pytest.mark.parametrize("name, d", [c for c in DESIGNS if "zero" in c[0]],
                             ids=[n for n in DESIGN_IDS if "zero" in n])
    def test_case0_refuses_mass_at_zero(self, name, d):
        f, s = tyler(3), np.diag([2.0, 1.0, 0.5])
        for call in (criterion, psi_map, gradient):
            with pytest.raises(DomainError):
                call(s, d, f)
        with pytest.raises(DomainError):
            hessian(d, f)
        with pytest.raises(DomainError):
            _evaluate(np.eye(3), np.eye(3), d, f)
        fit = fixed_point_solve(d, f)
        assert fit.status == "existence_violated"
        assert all(math.isnan(v) for v in (fit.criterion, fit.fixed_point_residual,
                                           fit.gradient_norm))


def scaled_frobenius(a):
    """``solver._frobenius`` as it was before it skipped the scale: the sum of
    squares always taken at an exact power of two."""
    v = a.ravel(order="K")
    e = math.frexp(np.abs(v).max())[1]
    w = np.ldexp(v, -e)
    return float(np.ldexp(math.sqrt(w @ w), e))


class TestFrobeniusFastPath:
    @pytest.mark.parametrize("exponent", [-401, -400, -399, 399, 400, 401])
    def test_equals_the_scaled_formula_bit_for_bit(self, exponent):
        rng = np.random.default_rng(33)
        for _ in range(200):
            a = rng.standard_normal(tuple(rng.integers(1, 21, size=2)))
            a = np.ldexp(a / np.abs(a).max() * rng.uniform(0.5, 1.0), exponent)
            assert math.frexp(np.abs(a).max())[1] == exponent
            for m in (a, a.T):
                assert _frobenius(m) == scaled_frobenius(m)
