"""Spectral zeta function: direct sums and the meromorphic extension.

zeta(s, gamma) = Tr(-Delta + gamma)^(-s).  For Re(s) large it is a direct
eigenvalue sum with a Weyl tail correction.  Everywhere else it is continued
through the Mellin transform of the heat trace: the model terms integrate in
closed form on (0, t1] and produce the pole towers.  The t >= t1 tail of the
trace K(t) -- an exact callable or a spectrum's own heat trace -- and, for an
exact trace, the remainder K - model on (0, t1] are integrated on cached
Gauss-Legendre panels.  Pole locations d_{k,p}/2 - n carry residues
(-1)^n gamma^n G_{k,p} / (n! Gamma(d_{k,p}/2 - n)); the reciprocal-gamma
factor makes trivial zeros at -1, -2, ... exact.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError
from .eigensolve import Spectrum
from .specfun import gamma_reciprocal
from .trace import HeatTraceModel, trace_values

N_MAX_DEFAULT = 20
POLE_TOL = 1e-9
QUAD_TOL = 1e-10
# A spectrum tail is complete enough at t1 once (lambda_max + gamma) * t1
# reaches this: the top mode then weighs e^-35, about 6e-16, there.
TAIL_DECAY = 35.0
_EXP_FLOOR = 745.0  # exp(-x) underflows past this


class PoleProximityWarning(UserWarning):
    pass


@dataclass
class Pole:
    k: int
    p: int
    n: int
    location: complex
    residue: complex
    coefficient: complex   # G_{k,p} (-gamma)^n / n!, the tower coefficient


def _estimate_ds(eigenvalues: np.ndarray) -> float:
    """Slope of log lambda_j vs log j over the top decade (Weyl exponent)."""
    n = eigenvalues.size
    j0 = max(1, int(0.8 * n))
    idx = np.arange(j0, n + 1, dtype=np.float64)
    lam = eigenvalues[j0 - 1:]
    lam = lam[lam > 0]
    idx = idx[-lam.size:]
    if lam.size < 5:
        raise DomainError("too few positive eigenvalues for a tail estimate")
    slope = np.polyfit(np.log(idx), np.log(lam), 1)[0]
    if slope <= 0:
        raise DomainError("eigenvalues do not grow; cannot estimate tail")
    return 2.0 / slope


def zeta_direct(spectrum: Spectrum, s: complex, gamma: complex = 0.0,
                d_s: float | None = None, tail_correct: bool = True) -> complex:
    """sum_j (lambda_j + gamma)^(-s) with a Weyl-based tail correction.

    Convergence needs Re(s) > d_s/2.  Modes with lambda_j + gamma numerically
    zero trigger a proximity warning and are excluded (their power is not
    finite); exact zero modes at gamma = 0 are the usual case.
    """
    s = complex(s)
    gamma = complex(gamma)
    lam = spectrum.eigenvalues.astype(np.complex128) + gamma
    tiny = np.abs(lam) < 1e-12
    if np.any(tiny):
        warnings.warn(
            f"{int(np.count_nonzero(tiny))} modes within 1e-12 of the pole "
            f"-lambda_j = gamma; excluded from the sum",
            PoleProximityWarning,
            stacklevel=2,
        )
        lam = lam[~tiny]
    powers = lam ** (-s)
    value = complex(math.fsum(powers.real), math.fsum(powers.imag))
    if not tail_correct or spectrum.n == 0:
        return value
    ds = _estimate_ds(spectrum.eigenvalues) if d_s is None else float(d_s)
    if s.real <= ds / 2.0:
        raise DomainError(
            f"Re(s)={s.real} <= d_s/2={ds / 2.0}; direct sum does not converge"
        )
    n = spectrum.n
    lam_top = complex(spectrum.eigenvalues[-1])
    # integral continuation of lambda(j) = lam_top (j/n)^(2/ds) past j = n,
    # first order in gamma/lam_top
    a = 2.0 * s / ds
    tail = n * (lam_top ** (-s)) / (a - 1.0)
    tail -= n * s * gamma * (lam_top ** (-s - 1)) / (a + 2.0 / ds - 1.0)
    return value + tail


_GL15 = np.polynomial.legendre.leggauss(15)
_GL31 = np.polynomial.legendre.leggauss(31)


class _CachedPanels:
    """Geometric quadrature panels with the s-independent factor cached.

    Each panel holds Gauss-Legendre nodes of two orders; the difference of
    the two estimates drives on-demand panel splitting.  ``f`` maps an array
    of nodes to their values; a panel calls it once per node set on its
    first use and keeps the values for subsequent s evaluations, so an
    extension that is never evaluated costs no trace evaluations.
    """

    def __init__(self, f, panels: list[tuple[float, float]], max_depth: int = 24):
        self.f = f
        self.max_depth = max_depth
        self.panels = [(lo, hi, 0) for lo, hi in panels]

    def _make(self, lo, hi, depth):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        x15 = mid + half * _GL15[0]
        x31 = mid + half * _GL31[0]
        return [lo, hi, depth, x15, self.f(x15), x31, self.f(x31)]

    def integrate(self, weight, tol: float) -> tuple[complex, float]:
        total = 0.0 + 0.0j
        err = 0.0
        stack = list(self.panels)
        refined: list = []
        while stack:
            panel = stack.pop()
            if len(panel) == 3:
                panel = self._make(*panel)
            lo, hi, depth, x15, f15, x31, f31 = panel
            half = 0.5 * (hi - lo)
            w15 = weight(x15)
            w31 = weight(x31)
            e15 = half * np.sum(_GL15[1] * f15 * w15)
            e31 = half * np.sum(_GL31[1] * f31 * w31)
            diff = abs(e31 - e15)
            if diff > tol and depth < self.max_depth:
                mid = 0.5 * (lo + hi)
                stack.append((lo, mid, depth + 1))
                stack.append((mid, hi, depth + 1))
                continue
            refined.append(panel)
            total += e31
            err += diff
        self.panels = refined
        return total, err


@dataclass
class ZetaExtension:
    """Meromorphic continuation built from a heat-trace model plus a tail."""

    model: HeatTraceModel
    gamma: complex
    t1: float
    n_max: int
    poles: list[Pole]
    # quadratures of the (0, t1] remainder and the t >= t1 trace; None
    # where that integral is taken as 0
    _i2: _CachedPanels | None = None
    _i3: _CachedPanels | None = None
    last_error: float = 0.0

    def _bracket_terms(self, s: complex):
        bracket = 0.0 + 0.0j
        removable = 0.0 + 0.0j
        hit_residue = 0.0 + 0.0j
        hit_loc = None
        log_t1 = math.log(self.t1)
        for pole in self.poles:
            coef, loc = pole.coefficient, pole.location
            if coef == 0:
                continue
            d = s - loc
            if abs(d) < POLE_TOL:
                if abs(pole.residue) > 1e-13 * (1.0 + abs(coef)):
                    hit_residue += pole.residue
                    hit_loc = loc
                else:
                    # 1/Gamma has a matching zero; the product has the
                    # finite limit coef * (-1)^j j! at loc = -j
                    j = int(round(-loc.real))
                    removable += coef * (-1) ** j * math.factorial(j)
            else:
                # int_0^t1 t^(s-1-exp+n) dt = t1^d / d with d = s - loc
                bracket += coef * np.exp(d * log_t1) / d
        if hit_loc is not None:
            raise PoleError(
                f"zeta evaluated at pole s={s!r}",
                residue=hit_residue,
                location=hit_loc,
            )
        return bracket, removable

    def _integral(self, panels: _CachedPanels | None,
                  s: complex) -> tuple[complex, float]:
        """int t^(s-1) e^(-gamma t) f(t) dt over ``panels``, with its error."""
        if panels is None:
            return 0.0 + 0.0j, 0.0
        g = self.gamma

        def weight(t):
            return t ** (s - 1.0) * np.exp(-g * t)

        return panels.integrate(weight, QUAD_TOL)

    def evaluate(self, s: complex) -> complex:
        s = complex(s)
        bracket, removable = self._bracket_terms(s)
        i2, e2 = self._integral(self._i2, s)
        i3, e3 = self._integral(self._i3, s)
        rg = gamma_reciprocal(s)
        self.last_error = (e2 + e3 + self.n_tail_bound(s)) * abs(rg)
        return rg * (bracket + i2 + i3) + removable

    def n_tail_bound(self, s: complex) -> float:
        """Bound on the dropped n > n_max Taylor terms of e^(-gamma t).

        |e^(-x) - T_n(-x)| <= |x|^(n+1) e^|x| / (n+1)! on the integration
        range, integrated term by term against the model powers.
        """
        g = abs(self.gamma)
        if g == 0.0:
            return 0.0
        m = self.n_max + 1
        lead = (g * self.t1) ** m * math.exp(g * self.t1) / math.factorial(m)
        acc = 0.0
        for term in self.model.terms:
            a = s.real - term.exponent.real + m
            if a <= 0:
                return math.inf
            acc += abs(term.coefficient) * self.t1 ** (s.real - term.exponent.real) / a
        return lead * acc


def _build_poles(model: HeatTraceModel, gamma: complex, n_max: int) -> list[Pole]:
    poles = []
    for term in model.terms:
        for n in range(n_max + 1):
            loc = term.exponent - n
            coef = term.coefficient * (-gamma) ** n / math.factorial(n)
            poles.append(Pole(term.k, term.p, n, loc, coef * gamma_reciprocal(loc), coef))
    return poles


def build_extension(model: HeatTraceModel, gamma: complex, tail,
                    t1: float = 1.0, n_max: int = N_MAX_DEFAULT,
                    allow_truncated_tail: bool = False) -> ZetaExtension:
    """Assemble the continuation from a model plus a t >= t1 representation.

    ``tail`` may be a Spectrum, whose heat trace is integrated beyond t1
    while the remainder on (0, t1] is taken as 0; a callable t -> K(t)
    treated as the exact trace, whose remainder and tail both stay numeric;
    or None.  Either trace goes through the same cached quadrature.  None
    means the model alone is continued -- a hard truncation of the t >= t1
    integral -- and must be opted into with ``allow_truncated_tail``
    (synthetic-model work); the pole structure is unaffected by the choice.
    """
    if t1 <= 0:
        raise DomainError("split point t1 must be positive")
    gamma = complex(gamma)
    poles = _build_poles(model, gamma, n_max)
    ext = ZetaExtension(model=model, gamma=gamma, t1=t1, n_max=n_max, poles=poles)
    if tail is None:
        if not allow_truncated_tail:
            raise DomainError(
                "missing tail representation; pass a Spectrum, an exact-trace "
                "callable, or allow_truncated_tail=True"
            )
        return ext
    remainder_fn = None
    if isinstance(tail, Spectrum):
        if tail.num_zero_modes and gamma.real <= 0:
            raise DomainError(
                "spectrum has zero modes; the t >= t1 integral needs gamma > 0"
            )
        if gamma.imag != 0:
            raise DomainError("spectrum tails support real gamma only")
        decay = (tail.lambda_max + gamma.real) * t1 if tail.n else math.inf
        if not tail.complete and decay < TAIL_DECAY:
            warnings.warn(
                "top of the spectrum still contributes at t1 "
                f"((lambda_max + gamma) * t1 = {decay:.3g} < {TAIL_DECAY:g}); "
                "a truncated mode list needs a larger t1",
                UserWarning,
                stacklevel=2,
            )

        def trace_fn(t):
            return trace_values(tail.eigenvalues, t)
    elif callable(tail):
        trace_fn = np.vectorize(tail, otypes=[float])  # one t per call

        def remainder_fn(t):
            m = model.evaluate(t).real
            r = trace_fn(t) - m
            # below the rounding floor of the subtraction the remainder is
            # not representable; treat it as zero
            return np.where(np.abs(r) < 1e3 * 2.2e-16 * np.abs(m), 0.0, r)
    else:
        raise DomainError(f"unsupported tail representation {type(tail)!r}")

    # confirm the weighted trace decays, scanning outward from t1; a constant
    # Neumann mode with gamma = 0 never drops and is rejected
    probes = t1 * 2.0 ** np.arange(1, 40)
    weighted = np.abs(trace_fn(probes)) * np.exp(-np.minimum(gamma.real * probes, _EXP_FLOOR))
    if not np.any(weighted < 1e-12):
        raise DomainError(
            "trace does not decay on the tail (constant mode?); "
            "a positive gamma shift is required"
        )
    if remainder_fn is not None:
        # geometric panels toward 0 for the remainder
        lows = [t1 * 2.0 ** (-j) for j in range(41)]
        i2_panels = [(lo, hi) for hi, lo in zip(lows[:-1], lows[1:])]
        i2_panels.append((0.0, lows[-1]))
        i2_panels.reverse()
        ext._i2 = _CachedPanels(remainder_fn, i2_panels)

    # doubling panels outward from t1 to past the last probe still above
    # the underflow floor
    decayed = probes[weighted > 1e-320]
    top = max(decayed[-1] * 2.0 if decayed.size else 2.0 * t1, 4.0 * t1)
    bounds = [t1]
    while bounds[-1] < top:
        bounds.append(bounds[-1] * 2.0)
    ext._i3 = _CachedPanels(trace_fn, list(zip(bounds[:-1], bounds[1:])))
    return ext


def zeta_extended(ext: ZetaExtension, s: complex) -> complex:
    """Evaluate the continuation; raises PoleError at poles with residue."""
    return ext.evaluate(s)


def casimir_energy(source) -> float:
    """E_Cas = (1/2) zeta(-1/2) at gamma = 0.

    For a finite Spectrum the zeta function is entire and the value is the
    plain half-sum of mode frequencies (0 for an empty spectrum), with
    eigenvalues clipped at 0 so a kernel mode rounded just below zero
    counts as the zero mode it is; for an extension it is the continued
    value, whose imaginary part must vanish.
    """
    if isinstance(source, Spectrum):
        if source.n == 0:
            return 0.0
        return 0.5 * float(np.sum(np.sqrt(np.maximum(source.eigenvalues, 0.0))))
    ext = source
    if ext.gamma != 0:
        raise DomainError("Casimir energy is defined for the gamma = 0 extension")
    v = ext.evaluate(-0.5 + 0.0j)
    if abs(v.imag) > 1e-8 * max(1.0, abs(v.real)):
        raise ConvergenceError(
            f"zeta(-1/2) has non-negligible imaginary part {float(v.imag)}"
        )
    return 0.5 * v.real


def export_poles_csv(ext: ZetaExtension, path: str) -> None:
    """Pole table (k, p, n, location, residue) as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "p", "n", "re_location", "im_location",
                        "re_residue", "im_residue"])
        for pole in ext.poles:
            writer.writerow([
                pole.k, pole.p, pole.n,
                "%.17g" % pole.location.real, "%.17g" % pole.location.imag,
                "%.17g" % pole.residue.real, "%.17g" % pole.residue.imag,
            ])
