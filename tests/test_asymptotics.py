import math
from fractions import Fraction

import pytest

from endhered import (
    asym_ratio_c,
    asym_ratio_d,
    avoid21,
    avoidance_probability_21,
    EndheredError,
    constant_Ck,
    double_factorial,
    log_asym_a21,
    poisson_half_pmf,
    row_ratio_21,
    table_d132,
)


class TestLogAsym:
    def test_n9_anchor(self):
        estimate = math.exp(log_asym_a21(9, 0))
        assert estimate == pytest.approx(2.10e7, rel=0.02)
        assert 21505552 / estimate == pytest.approx(1.02, abs=0.01)

    def test_k_dependence_identity(self):
        for k in range(0, 6):
            ratio = math.exp(log_asym_a21(50, k) - log_asym_a21(50, k + 1))
            assert ratio == pytest.approx(2 * (k + 1), rel=1e-9)

    def test_no_overflow_at_large_n(self):
        assert math.isfinite(log_asym_a21(10**6, 3))

    def test_domain(self):
        with pytest.raises(EndheredError):
            log_asym_a21(0, 0)


class TestPoissonHalf:
    def test_k0(self):
        assert poisson_half_pmf(0) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_normalization(self):
        assert sum(poisson_half_pmf(k) for k in range(51)) == pytest.approx(1.0, abs=1e-12)

    def test_successive_ratio(self):
        for k in range(8):
            assert poisson_half_pmf(k) / poisson_half_pmf(k + 1) == pytest.approx(
                2 * (k + 1), rel=1e-9
            )


class TestCk:
    def test_values(self):
        assert constant_Ck(0) == 1
        assert constant_Ck(1) == Fraction(1, 2)
        assert constant_Ck(2) == Fraction(5, 8)

    def test_exact_type(self):
        assert isinstance(constant_Ck(5), Fraction)


class TestStatedRatios:
    def test_d_k0_is_one(self):
        assert asym_ratio_d(100, 0) == 1.0
        assert asym_ratio_d(7, 0) == 1.0

    def test_c_k1_n100(self):
        assert asym_ratio_c(100, 1) == pytest.approx(0.0025, rel=1e-12)

    def test_c_k0_is_one(self):
        assert asym_ratio_c(1, 0) == 1.0
        assert asym_ratio_c(1000, 0) == 1.0


class TestConvergence:
    def test_avoidance_probability_converges(self):
        target = math.exp(-0.5)
        errs = [abs(avoidance_probability_21(n) - target) for n in (10, 100, 1000)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.005

    def test_d_row1_convergence(self):
        # d_{n,1} * n / (2n-1)!! tends to 1/4
        n = 200
        t = table_d132(n)
        ratio = Fraction(t[n, 1] * n, double_factorial(2 * n - 1))
        assert abs(float(ratio) - 0.25) < 0.05 * 0.25

    def test_row_ratio(self):
        for k in range(4):
            assert row_ratio_21(1000, k) == pytest.approx(2 * (k + 1), rel=0.02)


def test_exact_ratio_handles_huge_integers():
    assert avoidance_probability_21(2000) == pytest.approx(math.exp(-0.5), abs=0.01)


def test_avoid21_growth_sanity():
    # avoiders are a vanishing but slowly-decaying fraction
    p10 = avoidance_probability_21(10)
    assert 0.5 < p10 < 0.7
    assert avoid21(10) < double_factorial(19)
