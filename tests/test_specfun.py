import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from carpetgas import specfun
from carpetgas.errors import DomainError, PoleError
from carpetgas.specfun import (
    _B2K,
    gamma,
    gamma_reciprocal,
    polylog_complex,
    riemann_zeta,
)
from carpetgas.thermo import GasState, particle_density

mp.mp.dps = 30


def _mpc(z):
    return mp.mpc(z.real, z.imag)


# high-precision reference values (30-digit arithmetic, rounded to double)
GAMMA_2_3J = complex(-0.08239527266561189, 0.09177428743525931)
ZETA_OSC = complex(0.9522777434766764, 0.026597720507913383)
ZETA_OSC_ARG = complex(4.0, 4.0 * math.pi / math.log(12.0))
LI_32_03 = 0.33831109554480626
LOWER_25_17 = 0.4804635987208164
UPPER_0_04 = 0.7023801188656624
UPPER_M3_22 = 0.001848788934889981


class TestGamma:
    def test_frozen_reference(self):
        assert abs(gamma(2 + 3j) - GAMMA_2_3J) <= 1e-12 * abs(GAMMA_2_3J)

    def test_integer_factorials(self):
        for n in range(1, 15):
            assert abs(gamma(complex(n)) - math.factorial(n - 1)) \
                <= 1e-12 * math.factorial(n - 1)

    def test_half_integer(self):
        assert abs(gamma(0.5 + 0j) - math.sqrt(math.pi)) <= 1e-14

    def test_recurrence_random(self):
        rng = random.Random(20240811)
        for _ in range(200):
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(z.imag) < 0.1 and z.real < 0.6:
                continue  # stay clear of the pole line
            lhs = gamma(z + 1)
            rhs = z * gamma(z)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_reflection_random(self):
        rng = random.Random(7)
        for _ in range(200):
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(-6, 6))
            prod = gamma(z) * gamma(1 - z)
            ref = math.pi / cmath.sin(math.pi * z)
            assert abs(prod - ref) <= 1e-10 * abs(ref)

    def test_duplication_random(self):
        rng = random.Random(99)
        for _ in range(100):
            z = complex(rng.uniform(0.1, 6.0), rng.uniform(-4, 4))
            lhs = gamma(2 * z)
            rhs = gamma(z) * gamma(z + 0.5) * 2 ** (2 * z - 1) / math.sqrt(math.pi)
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_pole_raises(self):
        for n in (0, -1, -5):
            with pytest.raises(PoleError):
                gamma(complex(n))

    def test_reciprocal_entire(self):
        for n in (0, -1, -7):
            assert gamma_reciprocal(complex(n)) == 0.0
        z = 3.25 - 1.5j
        assert abs(gamma_reciprocal(z) * gamma(z) - 1.0) <= 1e-13

    def test_against_mpmath_complex(self):
        rng = random.Random(2024)
        for _ in range(60):
            z = complex(rng.uniform(0.2, 10.0), rng.uniform(-10, 10))
            ref = complex(mp.gamma(_mpc(z)))
            assert abs(gamma(z) - ref) <= 1e-12 * abs(ref)


def _bernoulli_even(count: int) -> list[float]:
    """B_2, B_4, ..., B_{2*count} computed exactly, then rounded to float."""
    m_max = 2 * count
    b = [Fraction(0)] * (m_max + 1)
    b[0] = Fraction(1)
    for m in range(1, m_max + 1):
        acc = Fraction(0)
        binom = 1
        for j in range(m):
            acc += binom * b[j]
            binom = binom * (m + 1 - j) // (j + 1)
        b[m] = -acc / (m + 1)
    return [float(b[2 * k]) for k in range(1, count + 1)]


class TestZeta:
    def test_bernoulli_literals_are_the_exact_numbers_rounded(self):
        assert list(_B2K) == _bernoulli_even(32)

    def test_frozen_reference(self):
        got = riemann_zeta(ZETA_OSC_ARG)
        assert abs(got - ZETA_OSC) <= 1e-12 * abs(ZETA_OSC)

    def test_classical_values(self):
        assert abs(riemann_zeta(2.0 + 0j) - math.pi**2 / 6) <= 1e-13
        assert abs(riemann_zeta(4.0 + 0j) - math.pi**4 / 90) <= 1e-13
        assert abs(riemann_zeta(0.0 + 0j) + 0.5) <= 1e-13
        assert abs(riemann_zeta(-1.0 + 0j) + 1.0 / 12.0) <= 1e-13

    def test_trivial_zeros_exact(self):
        for n in range(1, 8):
            assert riemann_zeta(complex(-2 * n)) == 0.0

    def test_pole(self):
        with pytest.raises(PoleError) as err:
            riemann_zeta(1.0 + 0j)
        assert err.value.residue == 1.0

    def test_functional_equation_random(self):
        rng = random.Random(321)
        for _ in range(80):
            s = complex(rng.uniform(-6, -0.2), rng.uniform(-8, 8))
            if abs(s.imag) < 0.05:
                s += 0.3j
            chi = 2**s * math.pi ** (s - 1) * cmath.sin(math.pi * s / 2) * gamma(1 - s)
            lhs = riemann_zeta(s)
            rhs = chi * riemann_zeta(1 - s)
            assert abs(lhs - rhs) <= 1e-10 * max(1e-3, abs(lhs))

    def test_against_mpmath_critical_strip(self):
        rng = random.Random(55)
        for _ in range(40):
            s = complex(rng.uniform(0.1, 0.9), rng.uniform(1.0, 40.0))
            ref = complex(mp.zeta(_mpc(s)))
            assert abs(riemann_zeta(s) - ref) <= 1e-12 * max(1e-6, abs(ref))


class TestPolylog:
    def test_frozen_reference(self):
        assert abs(polylog_complex(1.5, 0.3).real - LI_32_03) <= 1e-13

    def test_brute_series(self):
        # direct 10k-term sum converges fast at z = 0.3
        z, s = 0.3, 1.5
        brute = math.fsum(z**n / n**s for n in range(1, 10000))
        assert abs(polylog_complex(s, z).real - brute) <= 1e-14

    def test_z_one_is_zeta(self):
        assert polylog_complex(2.5, 1.0).real == riemann_zeta(2.5 + 0j).real

    def test_duplication_random(self):
        # Li_s(z) + Li_s(-z) = 2^(1-s) Li_s(z^2); the alternating series
        # converges absolutely so it serves as an independent probe
        rng = random.Random(17)
        for _ in range(60):
            s = rng.uniform(1.2, 5.0)
            z = rng.uniform(0.05, 0.98)
            li_minus = math.fsum((-z) ** n / n**s for n in range(1, 4000))
            lhs = polylog_complex(s, z).real + li_minus
            rhs = 2 ** (1 - s) * polylog_complex(s, z * z).real
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_jonquiere_route_continuity(self):
        # series route below 0.75, expansion route above; they must agree
        for s in (1.5 + 0j, 2.0 + 0j, 2.5 + 1.3j, 1.25 - 0.8j):
            below = polylog_complex(s, 0.7499999)
            above = polylog_complex(s, 0.7500001)
            assert abs(above - below) <= 5e-6 * max(1.0, abs(above))

    def test_against_mpmath_complex_order(self):
        rng = random.Random(8)
        for _ in range(50):
            s = complex(rng.uniform(1.1, 4.0), rng.uniform(-3.0, 3.0))
            z = rng.uniform(0.05, 0.97)
            ref = complex(mp.polylog(_mpc(s), mp.mpf(z)))
            assert abs(polylog_complex(s, z) - ref) <= 1e-12 * max(1e-8, abs(ref))

    def test_domain(self):
        with pytest.raises(DomainError):
            polylog_complex(1.0 + 0j, 1.0)
        with pytest.raises(DomainError):
            polylog_complex(2.0 + 0j, 1.5)


class TestIncompleteGamma:
    """mpmath.gammainc, the tests' incomplete-gamma reference (it is the
    oracle of the zeta spectrum tail), against frozen values, the
    additivity identity with this module's gamma, and the recurrence."""

    def test_frozen_references(self):
        assert abs(float(mp.gammainc(2.5, 0, 1.7)) - LOWER_25_17) <= 1e-13
        assert abs(float(mp.gammainc(0, 0.4)) - UPPER_0_04) <= 1e-13
        assert abs(float(mp.gammainc(-3, 2.2)) - UPPER_M3_22) \
            <= 1e-13 * UPPER_M3_22 + 1e-16

    def test_sum_identity_random(self):
        rng = random.Random(1234)
        for _ in range(150):
            s = complex(rng.uniform(0.2, 8.0), rng.uniform(-5, 5))
            x = rng.uniform(0.01, 20.0)
            total = complex(mp.gammainc(_mpc(s), 0, x) + mp.gammainc(_mpc(s), x))
            assert abs(total - gamma(s)) <= 1e-10 * max(1.0, abs(gamma(s)))

    def test_recurrence_random(self):
        # Gamma(s+1,x) = s Gamma(s,x) + x^s e^-x
        rng = random.Random(4321)
        for _ in range(150):
            s = complex(rng.uniform(-3.5, 6.0), rng.uniform(-4, 4))
            if abs(s.imag) < 1e-3 and abs(s.real - round(s.real)) < 1e-3:
                s += 0.37 + 0.11j
            x = rng.uniform(0.05, 15.0)
            lhs = complex(mp.gammainc(_mpc(s + 1), x))
            rhs = s * complex(mp.gammainc(_mpc(s), x)) \
                + cmath.exp(s * cmath.log(x) - x)
            assert abs(lhs - rhs) <= 1e-10 * max(1e-6, abs(lhs))

    def test_limits(self):
        assert mp.gammainc(2.5, 0, 0) == 0
        g = gamma(2.5 + 0j)
        assert abs(complex(mp.gammainc(2.5, 0)) - g) <= 1e-14 * abs(g)
        big = complex(mp.gammainc(2.5, 0, 60.0))
        assert abs(big - g) <= 1e-13 * abs(g)


def _bits(z):
    return z.real.hex(), z.imag.hex()


class TestMemo:
    # Re s on a quarter grid from -9 to 9 holds the trivial zeros, the
    # gamma poles and the half-integers; Im s = -0.0 must not pick up the
    # value cached for +0.0 unless the two are the same bits
    GRID = [complex(re / 4.0, im) for re in range(-36, 37)
            for im in (0.0, -0.0, 3.7, -3.7, 25.0, -25.0)]

    @pytest.mark.parametrize("public, core", [("riemann_zeta", "_riemann_zeta"),
                                              ("gamma", "_gamma")], ids=["zeta", "gamma"])
    def test_values_are_the_uncached_cores_bit_for_bit(self, public, core):
        public, core = getattr(specfun, public), getattr(specfun, core)
        checked = 0
        for s in self.GRID:
            try:
                want = _bits(core.__wrapped__(s))
            except PoleError:
                continue
            assert _bits(public(s)) == want, s
            assert _bits(public(s)) == want, s   # the cached value
            checked += 1
        assert checked >= len(self.GRID) - 20   # the poles at 1 and at 0, ..., -9

    def test_memo_bound_is_the_fixed_constant(self):
        assert specfun._riemann_zeta.cache_info().maxsize == specfun.MEMO_SIZE
        assert specfun._gamma.cache_info().maxsize == specfun.MEMO_SIZE
        assert specfun.MEMO_SIZE >= 2048

    def test_poles_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(PoleError):
                riemann_zeta(1.0)
            for z in (0.0, -1.0):
                with pytest.raises(PoleError):
                    gamma(z)

    def test_model_density_sweep_evaluates_each_argument_once(self, ms31_l3_analysis,
                                                              monkeypatch):
        # the tower orders e_p do not move with z, so the Jonquiere terms
        # zeta(e_p - k) repeat along a z sweep
        model = ms31_l3_analysis["model"]
        zeta_calls, sums = [], []
        public, summation = specfun.riemann_zeta, specfun._zeta_euler_maclaurin

        def counted_zeta(s):
            zeta_calls.append(s)
            return public(s)

        def counted_sum(s):
            sums.append(s)
            return summation(s)

        monkeypatch.setattr(specfun, "riemann_zeta", counted_zeta)
        monkeypatch.setattr(specfun, "_zeta_euler_maclaurin", counted_sum)
        specfun._riemann_zeta.cache_clear()
        for z in np.linspace(0.05, 0.95, 19):
            particle_density(GasState(beta=0.01, z=float(z)), model)
        specfun._riemann_zeta.cache_clear()
        assert len(sums) == len(set(sums)) > 0
        assert len(zeta_calls) > 2 * len(sums)


class TestVectorizedUse:
    def test_gamma_grid_monotone_error(self):
        # sanity on a dense real grid against the math module
        xs = np.linspace(0.6, 20.0, 250)
        for x in xs:
            assert abs(gamma(complex(x)).real - math.gamma(x)) \
                <= 1e-12 * math.gamma(x)
