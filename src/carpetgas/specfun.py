"""Special functions on the complex domains the pipeline needs.

Everything here is self-contained: gamma uses the Lanczos approximation
(Godfrey's g=607/128, 15-term coefficient set) with the reflection formula
for Re(z) < 0.5; the Riemann zeta uses Euler-Maclaurin summation with the
functional equation for Re(s) < 0; the polylogarithm uses the direct series
away from z=1 and the Jonquiere expansion near it.

Certified accuracy target: 1e-12 relative for gamma/zeta on the band
Re(s) > -10, |Im(s)| <= 50.  The test suite checks it against a
high-precision oracle.

gamma and riemann_zeta are plain functions over private cores memoised per
complex argument by functools.lru_cache, each bounded at MEMO_SIZE entries.
The observables sum over tower orders that do not move while a fugacity or
temperature is swept, so a sweep asks for the same few hundred arguments
many times.  A cached value is the core's own, bit for bit (arguments that
differ only in the sign of a zero part share an entry, and the cores give
them the same bits); a pole raises on every call, as lru_cache stores no
exception.
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "gamma",
    "gamma_reciprocal",
    "riemann_zeta",
    "polylog_complex",
]

# Entries each of the gamma and zeta memos keeps (about 200 bytes each),
# well above the ~1070 distinct gamma and ~230 distinct zeta arguments that
# the zeta continuation and the gas, blackbody and Casimir sweeps of two
# fitted carpet models ask for.
MEMO_SIZE = 4096

# Lanczos coefficients, g = 607/128 (Godfrey 2001).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


# Bernoulli numbers B_2, B_4, ..., B_64, each the float nearest the exact
# rational (tests/test_specfun.py recomputes them exactly).
_B2K = (
    0.16666666666666666,     -0.03333333333333333,    0.023809523809523808,
    -0.03333333333333333,    0.07575757575757576,     -0.2531135531135531,
    1.1666666666666667,      -7.092156862745098,      54.971177944862156,
    -529.1242424242424,      6192.123188405797,       -86580.25311355312,
    1425517.1666666667,      -27298231.067816094,     601580873.9006424,
    -15116315767.092157,     429614643061.1667,       -13711655205088.332,
    488332318973593.2,       -1.9296579341940068e+16, 8.416930475736826e+17,
    -4.0338071854059454e+19, 2.1150748638081993e+21,  -1.2086626522296526e+23,
    7.500866746076964e+24,   -5.038778101481069e+26,  3.6528776484818122e+28,
    -2.849876930245088e+30,  2.3865427499683627e+32,  -2.1399949257225335e+34,
    2.0500975723478097e+36,  -2.093800591134638e+38,
)


def _is_nonpositive_int(z: complex, tol: float = 0.0) -> bool:
    zr = z.real
    return z.imag == 0.0 and zr <= 0.5 and abs(zr - round(zr)) <= tol


def gamma(z: complex) -> complex:
    """Gamma function for complex z; raises PoleError at nonpositive integers."""
    return _gamma(complex(z))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _gamma(z: complex) -> complex:
    if _is_nonpositive_int(z):
        raise PoleError(f"gamma pole at z={z.real:g}", location=z)
    if z.real < 0.5:
        # Reflection; sin(pi z) is safe for |Im z| well below ~200.
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc


def gamma_reciprocal(z: complex) -> complex:
    """1/Gamma(z); entire, returns exact 0.0 at nonpositive integers."""
    z = complex(z)
    if _is_nonpositive_int(z):
        return 0.0 + 0.0j
    return 1.0 / gamma(z)


def _zeta_euler_maclaurin(s: complex) -> complex:
    # Valid for Re(s) >= 0 (away from s=1); N grows with |Im s|.
    n = 60 + int(1.5 * abs(s.imag))
    # Compensated partial sum; rounding here dominates the final error.
    terms = [j ** (-s) for j in range(1, n)]
    terms.append(n ** (1.0 - s) / (s - 1.0))
    terms.append(0.5 * n ** (-s))
    acc = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    # Correction sum: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * n^{-s-2k+1}
    poch = s  # running product s(s+1)...(s+2k-2)
    fact = 2.0  # (2k)!
    npow = n ** (-s - 1.0)
    term = 0.0 + 0.0j
    for k in range(1, len(_B2K) + 1):
        term = (_B2K[k - 1] / fact) * poch * npow
        acc += term
        if abs(term) < 1e-18 * max(1.0, abs(acc)):
            break
        poch *= (s + (2 * k - 1)) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
        npow /= n * n
    else:
        if abs(term) > 1e-13 * max(1.0, abs(acc)):
            raise ConvergenceError(f"zeta Euler-Maclaurin stalled at s={s}")
    return acc


def riemann_zeta(s: complex) -> complex:
    """Riemann zeta for complex s; functional-equation path for Re(s) < 0."""
    return _riemann_zeta(complex(s))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _riemann_zeta(s: complex) -> complex:
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta pole at s=1", residue=1.0, location=1.0)
    if s.real < 0.0:
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        if s.imag == 0.0 and abs(s.real / 2 - round(s.real / 2)) == 0.0:
            return 0.0 + 0.0j  # trivial zeros, exactly
        chi = 2.0**s * math.pi ** (s - 1.0) * cmath.sin(math.pi * s / 2.0)
        return chi * gamma(1.0 - s) * _zeta_euler_maclaurin(1.0 - s)
    return _zeta_euler_maclaurin(s)


def _harmonic(n: int) -> float:
    return sum(1.0 / j for j in range(1, n + 1))


def _polylog_series(s: complex, z: float) -> complex:
    # Direct Dirichlet series; geometric tail bound z^(N+1)/((1-z) N^Re(s)).
    acc = 0.0 + 0.0j
    zn = 1.0
    for n in range(1, 100000):
        zn *= z
        acc += zn * n ** (-s)
        bound = zn * z / ((1.0 - z) * n ** s.real)
        if bound <= 1e-16 + 1e-14 * abs(acc):
            return acc
    raise ConvergenceError(f"polylog series did not converge for z={z}")


def _polylog_near_one(s: complex, z: float) -> complex:
    # Jonquiere expansion, valid for |ln z| < 2 pi.
    w = math.log(z)
    if s.imag == 0.0 and abs(s.real - round(s.real)) < 1e-13 and s.real >= 1:
        n = int(round(s.real))
        lead = w ** (n - 1) / math.factorial(n - 1) * (_harmonic(n - 1) - math.log(-w))
        acc = complex(lead)
        wk = 1.0
        for k in range(0, 80):
            if k != n - 1:
                acc += riemann_zeta(complex(n - k)) * wk / math.factorial(k)
            wk *= w
            if k > 4 and abs(wk / math.factorial(k)) < 1e-18 * abs(acc):
                break
        return acc
    lead = gamma(1.0 - s) * (-w) ** (s - 1.0)
    acc = complex(lead)
    wk = 1.0
    term = 1.0
    for k in range(0, 120):
        term = riemann_zeta(s - k) * wk / math.factorial(k)
        acc += term
        wk *= w
        if k > 4 and abs(term) < 1e-17 * max(1.0, abs(acc)):
            return acc
    if abs(term) > 1e-12 * max(1.0, abs(acc)):
        raise ConvergenceError(f"polylog expansion stalled at s={s}, z={z}")
    return acc


def polylog_complex(s: complex, z: float) -> complex:
    """Li_s(z) for complex order s and real fugacity z in (0, 1].

    z = 1 requires Re(s) > 1 and returns zeta(s).  The series path is used
    for z <= 0.75, the Jonquiere expansion above it.
    """
    s = complex(s)
    if not 0.0 < z <= 1.0:
        raise DomainError(f"polylog defined here for z in (0,1], got {z}")
    if z == 1.0:
        if s.real <= 1.0:
            raise DomainError(f"Li_s(1) diverges for Re(s) <= 1, got s={s}")
        return riemann_zeta(s)
    if z <= 0.75:
        return _polylog_series(s, z)
    return _polylog_near_one(s, z)
