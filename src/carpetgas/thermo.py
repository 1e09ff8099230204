"""Ideal Bose gas on a carpet: densities, condensation, radiation, Casimir.

Two evaluation paths run through most observables.  The spectrum path sums
over computed eigenvalues exactly and works at any parameters; the model
path feeds the fitted log-periodic heat-trace law through polylogarithms
and zeta values and is the thermodynamic-limit asymptotic.  Units follow
hbar = c = 2m = 1: a massive particle on the scaled domain has energies
lambda_j / L^2, a photon has frequencies sqrt(lambda_j) / L.

Both paths read extensive quantities per spectral volume
V_s = (4 pi)^(d_s/2) G_{0,0} L^(d_s): the density is N / V_s and the free
energy density is -log Xi / (beta V_s).  On the model path N and log Xi are
towers sum G (L^2/beta)^e Li_(e+k)(z) over the trace terms, with the density
and free energy keeping the volume (k = 0) terms only.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DIVERGED, DomainError
from .eigensolve import Spectrum
from .geometry import dimension_bounds
from .oracle import interval_trace_exact
from .specfun import gamma as cgamma
from .specfun import polylog_complex, riemann_zeta
from .trace import HeatTraceModel, g0_extrema, spectral_volume

FUGACITY_TOL = 1e-12
LOG_Z_MIN = math.log(sys.float_info.min)   # smallest normal fugacity
# model-path formulas are large-domain asymptotics; outside these windows a
# warning is attached rather than an error
MASSIVE_REGIME = 100.0   # L^2 / beta
MASSLESS_REGIME = 10.0   # L / beta and a / b


@dataclass
class GasState:
    """Inverse temperature, fugacity and domain scale of a grand ensemble."""

    beta: float
    z: float
    L: float = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        if self.z <= 0:
            raise DomainError(f"fugacity must be positive, got {self.z}")
        if self.L <= 0:
            raise DomainError(f"domain scale must be positive, got {self.L}")

    @property
    def mu(self) -> float:
        return math.log(self.z) / self.beta


def max_fugacity(spectrum: Spectrum, state: GasState) -> float:
    """Occupations stay finite for z < e^(beta E_0 / L^2), E_0 the ground mode."""
    if spectrum.n == 0:
        raise DomainError("empty spectrum has no fugacity bound")
    return math.exp(float(_energies(state, spectrum.modes[:1])[0]))


def _energies(state: GasState, eigenvalues: np.ndarray) -> np.ndarray:
    """a_j = beta lambda_j / L^2 of a spectrum's modes lambda_j."""
    return state.beta * eigenvalues / (state.L * state.L)


def _log_gaps(energies: np.ndarray, z: float) -> np.ndarray | None:
    """u_j = a_j - log z, or None when some u_j <= 0.

    This is the one domain rule of the spectrum path: the state lies below
    the fugacity cap iff every u_j > 0, and the occupations are
    1 / expm1(u_j).  Every spectrum-path observable and solve_fugacity apply
    it, so a z accepted by one is accepted by all.
    """
    u = energies - math.log(z)
    return u if np.all(u > 0.0) else None


def _require_gaps(state: GasState, eigenvalues: np.ndarray,
                  mode: str = "E_0") -> np.ndarray:
    u = _log_gaps(_energies(state, eigenvalues), state.z)
    if u is None:
        raise DomainError(
            f"z={state.z} reaches e^(beta {mode} / L^2); occupation diverges"
        )
    return u


def _occupations(u: np.ndarray) -> np.ndarray:
    """Bose occupations 1 / expm1(u) for u > 0, written so no u overflows."""
    return np.exp(-u) / -np.expm1(-u)


def _log1mexp(u: np.ndarray) -> np.ndarray:
    """log(1 - e^(-u)) for u > 0, accurate at both ends (Maechler 2012)."""
    small = u < math.log(2.0)
    out = np.empty_like(u)
    out[small] = np.log(-np.expm1(-u[small]))
    out[~small] = np.log1p(-np.exp(-u[~small]))
    return out


def _volume_terms(model: HeatTraceModel):
    return [t for t in model.terms if t.k == 0]


def massive_in_window(length: float, beta: float) -> bool:
    """Whether length^2/beta is in the massive model path's asymptotic window."""
    return length * length / beta >= MASSIVE_REGIME


def massless_in_window(length: float, beta: float) -> bool:
    """Whether length/beta (also a/b, a/beta) is in the massless window."""
    return length / beta >= MASSLESS_REGIME


def _check_window(inside: bool, label: str, ratio: float, floor: float,
                  consequence: str = "", stacklevel: int = 3):
    """Warn unless ``inside``, the window test of a model-path scale ratio; the
    default stacklevel points at the caller of the public function calling this."""
    if not inside:
        warnings.warn(
            f"{label} = {ratio:.3g} below the asymptotic window >= {floor:g}"
            + consequence,
            UserWarning,
            stacklevel=stacklevel,
        )


def _check_massive_regime(state: GasState):
    _check_window(massive_in_window(state.L, state.beta), "L^2/beta",
                  state.L * state.L / state.beta, MASSIVE_REGIME,
                  "; model-path values carry uncontrolled finite-size corrections",
                  stacklevel=4)


def _real(value: complex, tol: float, name: str) -> float:
    """Real part of a model-path sum whose imaginary part cancels to ``tol``."""
    if abs(value.imag) > tol * max(abs(value.real), 1e-300):
        raise DomainError(f"{name} has imaginary part {float(value.imag)}")
    return value.real


def _polylog_tower(state: GasState, terms, order: float) -> complex:
    """sum over terms of G (L^2/beta)^e Li_(e + order)(z)."""
    log_tau = math.log(state.L * state.L / state.beta)
    acc = 0.0 + 0.0j
    for term in terms:
        acc += term.coefficient * cmath.exp(term.exponent * log_tau) \
            * polylog_complex(term.exponent + order, state.z)
    return acc


def massive_log_partition(state: GasState, source) -> float:
    """log of the grand partition function.

    Spectrum path: -sum_j log(1 - z e^(-beta lambda_j / L^2)).  Model path:
    sum over trace terms of G_{k,p} (L^2/beta)^(e_kp) Li_(e_kp + 1)(z),
    which diverges at z = 1 whenever a term has Re e_kp <= 0 (the DIVERGED
    marker is returned, not an exception).
    """
    if isinstance(source, Spectrum):
        u = _require_gaps(state, source.modes)
        return -float(np.sum(_log1mexp(u)))
    model = source
    _check_massive_regime(state)
    if state.z == 1.0 and any((t.exponent + 1.0).real <= 1.0 for t in model.terms):
        return DIVERGED
    return _polylog_tower(state, model.terms, 1.0).real


def particle_density(state: GasState, source, v_s: float | None = None):
    """Bosons per spectral volume.

    Spectrum path needs an explicit spectral volume; the model path takes
    the k = 0 tower of the trace law (volume term),

        rho = sum_p G_{0,p} (L^2/beta)^(e_p) Li_(e_p)(z) / V_s,
        e_p = d_s/2 + 2 pi i p / P,

    and returns DIVERGED at z = 1 when d_s <= 2.
    """
    if isinstance(source, Spectrum):
        if v_s is None:
            raise DomainError("spectrum path needs the spectral volume v_s")
        return float(np.sum(_occupations(_require_gaps(state, source.modes)))) / v_s
    model = source
    if state.z == 1.0 and model.d_s <= 2.0:
        return DIVERGED
    _check_massive_regime(state)
    n = _polylog_tower(state, _volume_terms(model), 0.0)
    return n.real / spectral_volume(model, state.L)


def density_series(state: GasState, model: HeatTraceModel,
                   m_max: int = 200000, tol: float = 1e-14) -> float:
    """Volume-term density by direct summation of the defining series,

        (4 pi beta)^(-d_s/2) / G00 * sum_m z^m G_0(-log(m beta / L^2)) m^(-d_s/2).

    Independent of the polylogarithm closed form; geometric truncation needs
    z < 1.
    """
    if not state.z < 1.0:
        raise DomainError("series route needs z < 1")
    tau = state.beta / (state.L * state.L)
    acc = 0.0
    zm = 1.0
    for m in range(1, m_max + 1):
        zm *= state.z
        g = model.g_profile(0, -math.log(m * tau)).real
        term = zm * g * m ** (-model.d_s / 2.0)
        acc += term
        if m > 8 and abs(term) < tol * max(abs(acc), 1e-300) * (1.0 - state.z):
            break
    return acc / ((4.0 * math.pi * state.beta) ** (model.d_s / 2.0) * model.g00)


def critical_densities(model: HeatTraceModel, beta: float):
    """(upper, lower) critical densities at z = 1.

    rho_c bounds follow from the extrema of the log-periodic profile G_0:
    [min G_0, max G_0] * zeta(d_s/2) / ((4 pi beta)^(d_s/2) G00).  Both are
    DIVERGED when d_s <= 2.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    if model.d_s <= 2.0:
        return DIVERGED, DIVERGED
    lo, hi = g0_extrema(model)
    base = riemann_zeta(complex(model.d_s / 2.0)).real \
        / ((4.0 * math.pi * beta) ** (model.d_s / 2.0) * model.g00)
    return hi * base, lo * base


def _density_pass(energies: np.ndarray, z: float, v_s: float):
    """(rho, z d rho / dz) of a spectrum at fugacity z, from one pass.

    With n_j = 1 / expm1(a_j - log z), rho = sum n_j / v_s and
    z d rho / dz = sum n_j (1 + n_j) / v_s.  Both are infinite at or past
    the cap; a ground occupation above about 1e154 overflows the slope to
    inf, which solve_fugacity reads as no Newton step.
    """
    u = _log_gaps(energies, z)
    if u is None:
        return math.inf, math.inf
    n = _occupations(u)
    with np.errstate(over="ignore"):
        slope = float(np.sum(n * (1.0 + n)))
    return float(np.sum(n)) / v_s, slope / v_s


def solve_fugacity(target_density: float, beta: float, L: float, source,
                   v_s: float | None = None) -> float:
    """Unique z with rho(beta, z) = target, by bracketed Newton steps on
    log rho as a function of x = log z.

    The density is strictly increasing in z.  On a finite spectrum the
    bracket is (0, e^(beta E_0 / L^2)) and every positive target is
    reachable; on a model with d_s > 2 targets at or above the critical
    density are rejected.  The bracket on x first widens downwards from the
    cap until the density falls below the target.  Each next x is then a
    Newton step on log rho from the latest point, with rho and its slope
    from one pass.  A step that reaches the upper bracket end is taken in
    y = log(x_cap - x) instead, x_cap the log of the cap: near the cap rho
    grows like a power of x_cap - x, so log rho is about linear in y, and a
    step in y stays below the cap.  A step that still leaves the bracket, or
    a point without a finite positive slope, takes the bracket midpoint
    instead; a step shorter than the larger of half the stop width and eps
    (which moves z by about one ulp) is lengthened to it so the bracket
    closes across the root.  Points at or past the cap count as infinite
    density, so every fugacity the solve keeps, and the one it returns,
    passes the domain rule of the observables.  The solve stops once the
    bracket on log z is narrower than FUGACITY_TOL times the smaller of 1
    and its distance from the cap, or once its ends are adjacent float
    fugacities, and returns the bracket end whose density is nearer the
    target, which holds that density to about FUGACITY_TOL of the target
    with no further pass.  A target that no representable fugacity below the
    cap reaches raises DomainError.  Close to the cap a float z resolves the
    ground-mode occupation n_0 only to about n_0 * 1e-16; when the density
    at the returned z misses the target by more than 10 FUGACITY_TOL a
    UserWarning gives the miss.
    """
    if target_density <= 0:
        raise DomainError("target density must be positive")

    if isinstance(source, Spectrum):
        if source.n == 0:
            raise DomainError("empty spectrum has no fugacity bound")
        if v_s is None:
            raise DomainError("spectrum path needs the spectral volume v_s")
        energies = _energies(GasState(beta=beta, z=1.0, L=L), source.modes)
        log_top = float(energies[0])

        def density(x):
            return _density_pass(energies, math.exp(x), v_s)
    else:
        log_top = 0.0
        cap = GasState(beta=beta, z=1.0, L=L)
        _check_massive_regime(cap)
        terms, volume = _volume_terms(source), spectral_volume(source, L)
        if source.d_s > 2.0:
            rho_c = _polylog_tower(cap, terms, 0.0).real / volume
            if target_density >= rho_c:
                raise DomainError(
                    f"target {target_density:g} is at or above the critical "
                    f"density {rho_c:g}; no fugacity solves it"
                )

        def density(x):
            # z d/dz Li_s(z) = Li_(s-1)(z): the slope is the tower at order -1
            z = math.exp(x)
            if z >= 1.0:
                return math.inf, math.inf
            state = GasState(beta=beta, z=z, L=L)
            return (_polylog_tower(state, terms, 0.0).real / volume,
                    _polylog_tower(state, terms, -1.0).real / volume)

    gap = 1.0
    while True:
        lo = max(log_top - gap, LOG_Z_MIN)
        rho, slope = density(lo)
        if rho < target_density:
            break
        if lo == LOG_Z_MIN:
            raise DomainError("target density below that of every positive fugacity")
        gap *= 2.0
    log_target = math.log(target_density)
    x, rho_lo, hi, rho_hi = lo, rho, log_top, math.inf
    for _ in range(200):
        nxt = 0.5 * (lo + hi)
        if rho > 0.0 and 0.0 < slope < math.inf:
            step = (log_target - math.log(rho)) * rho / slope
            if x + step >= hi:
                # near the cap rho grows like a power of log_top - x (the
                # ground mode like 1 / (a_0 - x)), so log rho is about linear
                # in y = log(log_top - x): the same Newton step taken in y
                step = -(log_top - x) * math.expm1(-step / (log_top - x))
            # no shorter than eps, which moves z by at least about one ulp
            half = max(0.5 * FUGACITY_TOL * min(1.0, log_top - x), sys.float_info.epsilon)
            if abs(step) < half:
                step += half if rho < target_density else -half
            if lo < x + step < hi:
                nxt = x + step
        if not lo < nxt < hi:
            break
        x = nxt
        rho, slope = density(x)
        if rho < target_density:
            lo, rho_lo = x, rho
        else:
            hi, rho_hi = x, rho
        if rho_hi < math.inf and (hi - lo <= FUGACITY_TOL * min(1.0, log_top - lo) or
                                  math.exp(hi) <= math.nextafter(math.exp(lo), math.inf)):
            break
    if not rho_hi < math.inf:
        raise DomainError("target density unreachable below the fugacity cap")
    # the bracket end whose density, already computed at exactly this z, is nearer
    if target_density - rho_lo < rho_hi - target_density:
        x, rho = lo, rho_lo
    else:
        x, rho = hi, rho_hi
    z = math.exp(x)
    miss = abs(rho - target_density) / target_density
    if miss > 10.0 * FUGACITY_TOL + 1e-14:
        warnings.warn(
            f"density at z={z!r} misses the target {target_density:g} by "
            f"{miss:.2g} relative; no float fugacity this close to the cap "
            "resolves it better",
            UserWarning,
            stacklevel=2,
        )
    return z


def tail_density(state: GasState, spectrum: Spectrum, v_s: float, m: int):
    """rho^(m+): occupation per spectral volume over modes k > m.

    The fugacity cap relaxes to e^(beta E_(m+1) / L^2) because the low modes
    are excluded; z may exceed the full-spectrum cap here.
    """
    if not 0 <= m < spectrum.n:
        raise DomainError(f"mode index m={m} outside the spectrum")
    u = _require_gaps(state, spectrum.modes[m + 1:], f"E_{m + 1}")
    return float(np.sum(_occupations(u))) / v_s


def condensate_density(state: GasState, spectrum: Spectrum, v_s: float):
    """Ground-mode occupation per spectral volume; DIVERGED at the fugacity cap."""
    if spectrum.n == 0:
        raise DomainError("empty spectrum")
    u = _log_gaps(_energies(state, spectrum.modes[:1]), state.z)
    if u is None:
        return DIVERGED
    return float(_occupations(u)[0]) / v_s


def free_energy_density(state: GasState, source, v_s: float | None = None):
    """f = -log Xi / (beta V_s); model path keeps the volume tower only."""
    if isinstance(source, Spectrum):
        if v_s is None:
            raise DomainError("spectrum path needs the spectral volume v_s")
        return -massive_log_partition(state, source) / (state.beta * v_s)
    model = source
    if state.z == 1.0 and model.d_s <= 0.0:
        return DIVERGED
    _check_massive_regime(state)
    log_xi = _polylog_tower(state, _volume_terms(model), 1.0)
    return -log_xi.real / (state.beta * spectral_volume(model, state.L))


@dataclass
class BECReport:
    verdict: str                 # "yes" | "no" | "inconclusive"
    d_s_lower: float
    d_s_upper: float
    d_s_fitted: float | None
    transient: bool | None


def bec_diagnose(spec, fitted: HeatTraceModel | None = None) -> BECReport:
    """Condensation verdict from rigorous dimension bounds.

    A gas on the carpet condenses at finite temperature iff d_s > 2 (random
    walk transient).  When the certified interval straddles 2 the verdict is
    inconclusive and only the fitted value hints at the answer.
    """
    bounds = dimension_bounds(spec)
    fitted_ds = fitted.d_s if fitted is not None else None
    if bounds.d_s_lower > 2.0:
        verdict, transient = "yes", True
    elif bounds.d_s_upper < 2.0:
        verdict, transient = "no", False
    else:
        verdict, transient = "inconclusive", None
    return BECReport(
        verdict=verdict,
        d_s_lower=bounds.d_s_lower,
        d_s_upper=bounds.d_s_upper,
        d_s_fitted=fitted_ds,
        transient=transient,
    )


def _photon_coefficient(coefficient: complex, D: complex) -> complex:
    """G Gamma((D+1)/2) zeta(D+1): Mellin coefficient of a photon-gas term."""
    return coefficient * cgamma((D + 1.0) / 2.0) * riemann_zeta(D + 1.0)


def _radiation_sum(model: HeatTraceModel, beta: float, L: float) -> complex:
    """sum over trace terms of the photon-gas Mellin coefficients.

    Each term G t^(-e) contributes, with d = 2e,
        G (2L/beta)^d Gamma((d+1)/2) zeta(d+1) / sqrt(pi) * d,
    the subordination image of the half-power heat kernel.  Terms with
    Re d <= 0 are dropped: their zeta arguments hit the pole and physically
    they are o(1) surface corrections with no extensive radiation content.
    """
    acc = 0.0 + 0.0j
    for term in model.terms:
        d = 2.0 * term.exponent
        if d.real <= 1e-12:
            continue
        piece = _photon_coefficient(term.coefficient, d) \
            * cmath.exp(d * math.log(2.0 * L / beta)) / math.sqrt(math.pi)
        acc += piece * d
    return acc


def blackbody(model: HeatTraceModel, beta: float, L: float = 1.0):
    """(energy density, pressure) of massless radiation at temperature 1/beta.

    The energy density per spectral volume is beta^(-(d_s+1)) times a
    log-periodic amplitude; the pure-volume d_s = 3 model reduces to the
    pi^2 / (30 beta^4) law.  The equation of state P = E / d_s is exact for
    the model path.
    """
    if beta <= 0 or L <= 0:
        raise DomainError("beta and L must be positive")
    _check_window(massless_in_window(L, beta), "L/beta", L / beta, MASSLESS_REGIME,
                  "; dropped short-scale terms may matter")
    v_s = spectral_volume(model, L)
    energy = _real(_radiation_sum(model, beta, L) / (beta * v_s), 1e-9, "radiation sum")
    return energy, energy / model.d_s


def blackbody_spectrum(spectrum: Spectrum, beta: float, L: float,
                       v_s: float) -> float:
    """Exact photon energy density: (1/V_s) sum_j omega_j / (e^(beta omega_j) - 1)
    over the modes, omega_j = sqrt(lambda_j) / L; zero modes carry no energy."""
    if beta <= 0 or L <= 0 or v_s <= 0:
        raise DomainError("beta, L, v_s must be positive")
    modes = spectrum.modes
    omega = np.sqrt(modes[modes > 0.0]) / L
    return float(np.sum(omega / np.expm1(beta * omega))) / v_s


def waveguide_trace(carpet_model: HeatTraceModel, a: float, b: float,
                    t: float) -> float:
    """Heat trace of carpet(side a) x interval(length b) at time t."""
    if a <= 0 or b <= 0 or t <= 0:
        raise DomainError("a, b, t must be positive")
    return carpet_model.evaluate(t / (a * a)).real * interval_trace_exact(t / (b * b))


def _waveguide_coefficients(model: HeatTraceModel):
    """(2 pi i p / P, C_p) over the volume terms, with C_p the photon
    coefficient of G_{0,p} at D = 2 e_p + 1 = d_so + 4 pi i p / P, the
    dimension of the carpet x interval waveguide.
    """
    return [(term.exponent - model.d_s / 2.0,
             _photon_coefficient(term.coefficient, 2.0 * term.exponent + 1.0))
            for term in _volume_terms(model)]


def casimir_waveguide_zero_T(carpet_model: HeatTraceModel, a: float,
                             b: float) -> tuple[float, float]:
    """Zero-temperature Casimir energy and pressure for plates at separation b
    across a waveguide of carpet cross-section scaled to a, in the a >> b
    regime.  The continuum-square model recovers E/a^2 = -pi^2/(1440 b^3)
    and P = -pi^2/(480 b^4) for a scalar field (one polarization; the
    electromagnetic result is twice this).
    """
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be positive")
    _check_window(massless_in_window(a, b), "a/b", a / b, MASSLESS_REGIME)
    ds = carpet_model.d_s
    d_so = ds + 1.0
    log_ab = math.log(a / b)
    e_acc = 0.0 + 0.0j
    p_acc = 0.0 + 0.0j
    for shift, c in _waveguide_coefficients(carpet_model):
        osc = cmath.exp(2.0 * shift * log_ab)
        e_acc += c * osc
        p_acc += c * (d_so + 2.0 * shift) * osc
    energy = -(a ** ds / b ** (ds + 1.0)) / (4.0 * math.pi) * e_acc
    pressure = -(b ** (-(d_so + 1.0))
                 / ((4.0 * math.pi) ** ((d_so + 1.0) / 2.0) * carpet_model.g00)) \
        * p_acc
    return (_real(energy, 1e-10, "waveguide energy"),
            _real(pressure, 1e-10, "waveguide pressure"))


def casimir_waveguide_thermal(carpet_model: HeatTraceModel, a: float, b: float,
                              beta: float) -> float:
    """Leading thermal pressure on the plates, independent of b.

    P = beta^(-(d_so+1)) H_3(-log(beta/2a)) with the Fourier amplitude built
    from zeta and Gamma at the tower arguments; the continuum-square model
    gives pi^2/(90 beta^4).
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be positive")
    _check_window(massless_in_window(a, beta), "a/beta", a / beta, MASSLESS_REGIME)
    d_so = carpet_model.d_s + 1.0
    x = -math.log(beta / (2.0 * a))
    acc = 0.0 + 0.0j
    for shift, c in _waveguide_coefficients(carpet_model):
        acc += c * cmath.exp(2.0 * shift * x)
    acc /= carpet_model.g00 * math.pi ** ((d_so + 1.0) / 2.0)
    return _real(acc, 1e-10, "thermal sum") * beta ** (-(d_so + 1.0))
