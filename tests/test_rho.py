import math

import numpy as np
import pytest

from mscatter import (
    DomainError,
    InvalidInputError,
    UnsupportedOperationError,
    custom,
    gaussian,
    rho_gap_bounds,
    t_dist,
    tyler,
    validate,
    weibull,
)


class TestEvaluation:
    def test_tyler_log_one_is_zero(self):
        assert tyler(3).rho(1.0) == pytest.approx(0.0)

    def test_tyler_rejects_zero(self):
        with pytest.raises(DomainError):
            tyler(3).rho(0.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            gaussian().rho(-1.0)

    def test_t_at_zero(self):
        # (nu + q) log(nu + 0) = 3 log 1 = 0 for nu = 1, q = 2.
        assert t_dist(1.0, 2).rho(0.0) == pytest.approx(0.0)

    def test_weibull_value(self):
        assert weibull(0.5).rho(4.0) == pytest.approx(2.0)

    def test_gaussian_is_identity(self):
        assert gaussian().rho(7.0) == pytest.approx(7.0)
        assert gaussian().psi(7.0) == pytest.approx(7.0)

    def test_psi_values_from_closed_forms(self):
        assert t_dist(2.0, 3).psi_infinity == pytest.approx(5.0)
        assert tyler(4).psi(17.0) == pytest.approx(4.0)
        assert weibull(0.5).psi(9.0) == pytest.approx(1.5)

    def test_psi_equals_closed_forms_on_validation_grid(self):
        grid = validate(gaussian()).grid
        q, nu, g = 3, 2.5, 0.4
        closed = [
            (tyler(q), np.full_like(grid, q)),
            (t_dist(nu, q), (nu + q) * grid / (nu + grid)),
            (weibull(g), g * grid**g),
            (gaussian(), grid),
        ]
        for f, want in closed:
            assert np.allclose(f.psi(grid), want, rtol=1e-14, atol=0.0), f

    def test_psi_infinity_matches_large_argument(self):
        f = t_dist(2.0, 3)
        assert f.psi(1e12) == pytest.approx(f.psi_infinity, rel=0.01)

    def test_t_rejects_nonpositive_nu(self):
        with pytest.raises(InvalidInputError):
            t_dist(0.0, 2)

    def test_t_rejects_infinite_nu(self):
        # The Gaussian limit has its own loss; nu = inf would only give NaNs.
        with pytest.raises(InvalidInputError, match="finite nu"):
            t_dist(math.inf, 2)

    def test_weibull_exponent_range(self):
        with pytest.raises(InvalidInputError):
            weibull(1.0)

    def test_missing_second_derivative(self):
        f = custom(rho=lambda s: s, rho_prime=lambda s: np.ones_like(np.asarray(s, float)))
        with pytest.raises(UnsupportedOperationError):
            f.rho_second(1.0)

    def test_case_tags(self):
        assert tyler(2).case_tag == "case0"
        assert t_dist(3.0, 2).case_tag == "case1prime"
        assert weibull(0.3).case_tag == "case1"
        assert gaussian().case_tag == "case1"
        assert math.isinf(weibull(0.3).psi_infinity)


class TestDerivativeConsistency:
    @pytest.mark.parametrize(
        "f", [tyler(3), t_dist(2.5, 4), weibull(0.5), gaussian()],
        ids=["tyler", "t", "weibull", "gaussian"],
    )
    def test_rho_prime_matches_central_difference(self, f):
        grid = np.logspace(-3, 3, 64)
        h = grid * 1e-6
        fd = (np.asarray(f.rho(grid + h)) - np.asarray(f.rho(grid - h))) / (2 * h)
        rp = np.asarray(f.rho_prime(grid))
        assert np.all(np.abs(rp - fd) <= 1e-6 * (1.0 + np.abs(rp)))

    @pytest.mark.parametrize(
        "f", [tyler(3), t_dist(2.5, 4), weibull(0.5)], ids=["tyler", "t", "weibull"]
    )
    def test_rho_second_matches_central_difference(self, f):
        grid = np.logspace(-2, 3, 48)
        h = grid * 1e-5
        fd = (np.asarray(f.rho_prime(grid + h)) - np.asarray(f.rho_prime(grid - h))) / (2 * h)
        rs = np.asarray(f.rho_second(grid))
        assert np.all(np.abs(rs - fd) <= 1e-5 * (1.0 + np.abs(rs)))


class TestValidate:
    def test_builtin_families_pass(self):
        for f in (tyler(2), t_dist(1.0, 2), weibull(0.5), gaussian()):
            assert validate(f).passed

    def test_grid_size_floor(self):
        with pytest.raises(InvalidInputError):
            validate(tyler(2), grid_size=8)

    def test_negative_slope_rho_fails(self):
        f = custom(
            rho=lambda s: -np.asarray(s, float),
            rho_prime=lambda s: -np.ones_like(np.asarray(s, float)),
        )
        rep = validate(f)
        assert not rep.passed
        assert any("strictly positive" in msg for msg in rep.failures)

    def test_non_monotone_rho_prime_fails(self):
        # rho = log(1 + s^2): rho' = 2s/(1+s^2) rises then falls, and indeed
        # rho'(0.5) = 0.8 < rho'(1) = 1.
        f = custom(
            rho=lambda s: np.log1p(np.asarray(s, float) ** 2),
            rho_prime=lambda s: 2 * np.asarray(s, float) / (1 + np.asarray(s, float) ** 2),
        )
        assert f.rho_prime(0.5) < f.rho_prime(1.0)
        rep = validate(f)
        assert not rep.passed
        assert any("non-increasing" in msg for msg in rep.failures)


class TestGapBounds:
    def test_lambda_one_collapses(self):
        lo, hi = rho_gap_bounds(t_dist(1.0, 2), a=3.0, lam=1.0)
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(0.0)

    def test_tyler_hand_values(self):
        f = tyler(2)
        lo, hi = rho_gap_bounds(f, a=1.0, lam=math.e)
        gap = f.rho(math.e) - f.rho(1.0)
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(2.0 * (math.e - 1.0))
        assert gap == pytest.approx(2.0)

    def test_t_hand_values(self):
        # nu = q = 1: psi(1) = 2*1/2 = 1, gap = 2 log(3/2).
        f = t_dist(1.0, 1)
        lo, hi = rho_gap_bounds(f, a=1.0, lam=2.0)
        gap = f.rho(2.0) - f.rho(1.0)
        assert gap == pytest.approx(2.0 * math.log(1.5))
        assert lo == pytest.approx(math.log(2.0))
        assert hi == pytest.approx(1.0)
        assert lo <= gap <= hi

    @pytest.mark.parametrize(
        "f", [tyler(3), t_dist(2.0, 3), weibull(0.5), gaussian()],
        ids=["tyler", "t", "weibull", "gaussian"],
    )
    def test_gap_bracketing_on_grid(self, f):
        avals = np.logspace(-2, 2, 12)
        lams = np.logspace(-1, 1, 12)
        for a in avals:
            for lam in lams:
                lo, hi = rho_gap_bounds(f, a, lam)
                gap = f.rho(lam * a) - f.rho(a)
                assert lo - 1e-10 * (1 + abs(lo)) <= gap <= hi + 1e-10 * (1 + abs(hi))

    @pytest.mark.parametrize(
        "f", [tyler(3), t_dist(2.0, 3), weibull(0.5), gaussian()],
        ids=["tyler", "t", "weibull", "gaussian"],
    )
    def test_psi_growth_inequality(self, f):
        # psi(lam * a) <= max(1, lam) psi(a) on a 32 x 32 grid.
        avals = np.logspace(-3, 3, 32)
        lams = np.logspace(-2, 2, 32)
        for a in avals:
            grown = np.asarray(f.psi(lams * a))
            bound = np.maximum(1.0, lams) * f.psi(a)
            assert np.all(grown <= bound * (1 + 1e-12) + 1e-12)
