import pytest

from sdlab.errors import SingularLeadError
from sdlab.powerseries import PowerSeries, ps_exp, ps_log, ps_pow


def random_series(rng, order=16, scale=0.35):
    # unit constant term, geometrically decaying random coefficients: stays
    # well inside the convergence disc of the formal operations
    coeffs = [1.0 + 0j]
    for k in range(1, order + 1):
        coeffs.append(complex(rng.normal(), rng.normal()) * scale**k)
    return PowerSeries(0j, tuple(coeffs))


class TestFormalOps:
    def test_exp_log_roundtrip(self, rng):
        for _ in range(10):
            a = random_series(rng)
            b = ps_exp(ps_log(a))
            assert max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs)) < 1e-12

    def test_pow_zero(self, rng):
        a = random_series(rng)
        p = ps_pow(a, 0)
        assert p.coeffs[0] == 1
        assert all(c == 0 for c in p.coeffs[1:])

    def test_pow_two_is_square(self, rng):
        for _ in range(10):
            a = random_series(rng)
            p = ps_pow(a, 2)
            sq = a * a
            assert max(abs(x - y) for x, y in zip(p.coeffs, sq.coeffs)) < 1e-12

    def test_singular_lead(self):
        a = PowerSeries(0j, (0j, 1 + 0j))
        with pytest.raises(SingularLeadError):
            ps_log(a)
        with pytest.raises(SingularLeadError):
            ps_pow(a, 0.5)

    def test_mul_matches_polynomial_eval(self, rng):
        a = random_series(rng, order=8)
        b = random_series(rng, order=8)
        prod = a * b
        s = 0.2 + 0.1j
        # truncated product agrees with product of evaluations up to O(s^9)
        direct = a.eval(s) * b.eval(s)
        assert abs(prod.eval(s) - direct) < abs(s) ** 9 * 50

