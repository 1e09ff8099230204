"""Exact Euclidean references: boxes, intervals, their traces and gas laws.

Everything here has a closed form or an exact enumeration, independent of
the carpet pipeline, so each pipeline stage can be validated against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ConvergenceError, DIVERGED, DomainError
from .eigensolve import Spectrum
from .trace import HeatTraceModel, ModelTerm
from .specfun import riemann_zeta

ENUM_CAP = 50_000_000


@dataclass(frozen=True)
class BoxSpec:
    """Rectangular box with per-axis side lengths and one boundary condition."""

    dimension: int
    sides: tuple[float, ...]
    bc: str = "dirichlet"

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError("dimension must be >= 1")
        if len(self.sides) != self.dimension:
            raise DomainError("need one side length per axis")
        if any(s <= 0 for s in self.sides):
            raise DomainError("sides must be positive")
        if self.bc not in ("dirichlet", "neumann"):
            raise DomainError(f"unknown boundary condition {self.bc!r}")


def unit_box(dimension: int, bc: str = "dirichlet") -> BoxSpec:
    return BoxSpec(dimension, (1.0,) * dimension, bc)


def box_spectrum(box: BoxSpec, cutoff: float) -> Spectrum:
    """All Laplacian eigenvalues pi^2 sum (n_i/L_i)^2 <= cutoff, exact.

    Dirichlet: n_i >= 1; Neumann: n_i >= 0.  Enumeration is pruned axis by
    axis; the working array size is capped.  The list is a cutoff truncation
    of an infinite spectrum, so it is marked incomplete.
    """
    if cutoff <= 0:
        raise DomainError("cutoff must be positive")
    n_start = 1 if box.bc == "dirichlet" else 0
    sums = np.zeros(1)
    for L in box.sides:
        n_max = int(math.floor(L * math.sqrt(cutoff) / math.pi))
        ns = np.arange(n_start, n_max + 1, dtype=np.float64)
        if ns.size == 0:
            return Spectrum(np.zeros(0), bc=box.bc, complete=False, method="oracle-box")
        if sums.size * ns.size > ENUM_CAP:
            raise CapExceededError(
                f"box enumeration needs {sums.size * ns.size} candidates (cap {ENUM_CAP})"
            )
        axis = (math.pi / L) ** 2 * ns**2
        sums = (sums[:, None] + axis[None, :]).ravel()
        sums = sums[sums <= cutoff]
    return Spectrum(np.sort(sums), bc=box.bc, complete=False, method="oracle-box")


def _theta_sum(term) -> float:
    """sum_{j>=1} term(j) of a decreasing positive series, stopped at the
    first term below 1e-300 or below 1e-20 of the partial sum."""
    total = 0.0
    j = 1
    while True:
        value = term(j)
        total += value
        if value < 1e-300 or value < 1e-20 * max(total, 1e-300):
            return total
        j += 1


def interval_trace_exact(tau: float, bc: str = "dirichlet") -> float:
    """Heat trace of the unit-interval Laplacian at time tau.

    Dirichlet: sum_{j>=1} e^(-j^2 pi^2 tau); Neumann adds the constant mode.
    Direct summation for tau >= 1, Jacobi theta (Poisson) form for tau < 1;
    the two agree at tau = 1 to full precision.
    """
    if tau <= 0:
        raise DomainError("tau must be positive")
    if tau >= 1.0:
        dirichlet = _theta_sum(lambda j: math.exp(-j * j * math.pi * math.pi * tau))
    else:
        s = _theta_sum(lambda k: math.exp(-k * k / tau))
        dirichlet = (1.0 + 2.0 * s) / math.sqrt(4.0 * math.pi * tau) - 0.5
    return dirichlet + 1.0 if bc == "neumann" else dirichlet


def box_trace_exact(box: BoxSpec, t: float) -> float:
    """Heat trace of the box Laplacian: product of per-axis interval traces."""
    out = 1.0
    for L in box.sides:
        out *= interval_trace_exact(t / (L * L), box.bc)
    return out


def box_model(dimension: int, bc: str = "dirichlet") -> HeatTraceModel:
    """Short-time expansion coefficients of the unit box, all codimensions.

    K(t) = prod (1/sqrt(4 pi t) -+ 1/2 + tiny) expands to
    sum_k C(d,k) (4 pi)^(-(d-k)/2) (-+1/2)^k t^(-(d-k)/2);
    Dirichlet takes the minus sign.  No oscillation: only p = 0 terms, and
    the period field (1) is inert.
    """
    if dimension < 1:
        raise DomainError("dimension must be >= 1")
    sign = -0.5 if bc == "dirichlet" else 0.5
    terms = []
    for k in range(dimension + 1):
        coef = math.comb(dimension, k) * (4.0 * math.pi) ** (-(dimension - k) / 2.0) * sign**k
        terms.append(ModelTerm(k, 0, complex((dimension - k) / 2.0), complex(coef)))
    return HeatTraceModel(terms=terms, period=1.0, d_s=float(dimension))


def euclid_bec_critical(dimension: int, beta: float):
    """Critical density zeta(d/2)/(4 pi beta)^(d/2); DIVERGED for d <= 2."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    if dimension <= 2:
        return DIVERGED
    z = riemann_zeta(complex(dimension / 2.0)).real
    return z / (4.0 * math.pi * beta) ** (dimension / 2.0)


def euclid_blackbody(dimension: int, beta: float) -> float:
    """Photon energy density in d dimensions:
    beta^-(d+1) * (d / pi^((d+1)/2)) * Gamma((d+1)/2) * zeta(d+1)."""
    if dimension < 1:
        raise DomainError("dimension must be >= 1")
    if beta <= 0:
        raise DomainError("beta must be positive")
    d = dimension
    z = riemann_zeta(complex(d + 1.0)).real
    return (
        beta ** (-(d + 1.0))
        * (d / math.pi ** ((d + 1.0) / 2.0))
        * math.gamma((d + 1.0) / 2.0)
        * z
    )


def sum_of_three_squares_counts(jmax: int) -> np.ndarray:
    """counts[j] = #{(n1,n2,n3), n_i >= 1, n1^2+n2^2+n3^2 = j} for j <= jmax.

    Cubes the real FFT of the indicator a[n^2] = 1 (n >= 1).  The transform
    is longer than 3 jmax, so no wrapped term lands at or below jmax.  The
    float result is rounded and certified to be integer-exact.
    """
    if jmax < 3:
        return np.zeros(max(jmax + 1, 0), dtype=np.int64)
    if jmax > ENUM_CAP:
        raise CapExceededError(f"jmax {jmax} exceeds cap {ENUM_CAP}")
    nmax = int(math.isqrt(jmax))
    a = np.zeros(jmax + 1)
    a[np.arange(1, nmax + 1) ** 2] = 1.0
    size = 1 << (3 * jmax).bit_length()
    c3 = np.fft.irfft(np.fft.rfft(a, size) ** 3, size)[: jmax + 1]
    rounded = np.rint(c3)
    if np.max(np.abs(c3 - rounded)) > 0.25:
        raise ConvergenceError("FFT convolution drifted off integers")
    return rounded.astype(np.int64)


def cube_photon_energy_density(side: float, beta: float,
                               tail_exponent: float = 45.0) -> float:
    """(1/L^3) sum over Dirichlet cube modes of omega/(e^(beta omega) - 1).

    Massless dispersion omega = sqrt(lambda) = pi |n| / L.  Modes with
    beta*omega > tail_exponent are dropped; their contribution is below
    e^(-tail_exponent) of the total.
    """
    if side <= 0 or beta <= 0:
        raise DomainError("side and beta must be positive")
    omega_max = tail_exponent / beta
    jmax = int((omega_max * side / math.pi) ** 2) + 1
    counts = sum_of_three_squares_counts(jmax)
    j = np.nonzero(counts)[0]
    omega = math.pi * np.sqrt(j.astype(np.float64)) / side
    occ = omega / np.expm1(beta * omega)
    return float(np.sum(counts[j] * occ)) / side**3


def interval_casimir_energy() -> float:
    """Zero-point energy constant of the unit Dirichlet interval: -pi/24.

    E = (1/2) sum omega_j = (pi/2) sum j regularized to (pi/2) zeta(-1).
    """
    return -math.pi / 24.0
