"""Spectral zeta function: direct sums and the meromorphic extension.

zeta(s, gamma) = Tr(-Delta + gamma)^(-s).  For Re(s) large it is a direct
eigenvalue sum with a Weyl tail correction.  Everywhere else it is continued
through the Mellin transform of the heat trace: the model terms integrate in
closed form on (0, t1] and produce the pole towers.  The rest is one
integral on one set of cached Gauss-Kronrod G15/K31 panels, refined in
rounds with one trace call per round: the trace K(t) beyond t1 -- an exact
callable or a spectrum's own heat trace -- and, for an exact trace, the
remainder K - model on (0, t1] under the same integrand; a spectrum tail
takes that remainder as 0.  Pole locations d_{k,p}/2 - n carry residues
(-1)^n gamma^n G_{k,p} / (n! Gamma(d_{k,p}/2 - n)); the reciprocal-gamma
factor makes trivial zeros at -1, -2, ... exact.  The tower terms of one s
are summed as one array expression.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

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
PANEL_DEPTH = 24  # most halvings of one quadrature panel


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


def zeta_direct(spectrum: Spectrum, s: complex, gamma: complex = 0.0, *,
                d_s: float, tail_correct: bool = True) -> complex:
    """sum_j (lambda_j + gamma)^(-s) with a Weyl-based tail correction.

    Convergence needs Re(s) > d_s/2, d_s the Weyl-law dimension of the tail
    correction.  Modes with lambda_j + gamma numerically zero trigger a
    proximity warning and are excluded (their power is not finite); exact
    zero modes at gamma = 0 are the usual case.
    """
    s = complex(s)
    gamma = complex(gamma)
    modes = spectrum.modes
    lam = modes.astype(np.complex128) + gamma
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
    if s.real <= d_s / 2.0:
        raise DomainError(
            f"Re(s)={s.real} <= d_s/2={d_s / 2.0}; direct sum does not converge"
        )
    n = spectrum.n
    lam_top = complex(modes[-1])
    # integral continuation of lambda(j) = lam_top (j/n)^(2/d_s) past j = n,
    # first order in gamma/lam_top
    a = 2.0 * s / d_s
    tail = n * (lam_top ** (-s)) / (a - 1.0)
    tail -= n * s * gamma * (lam_top ** (-s - 1)) / (a + 2.0 / d_s - 1.0)
    return value + tail


# The Gauss-Kronrod G15/K31 pair of QUADPACK's qk31 on [-1, 1], rounded to
# float64 from a 60-digit mpmath computation: the Kronrod nodes x >= 0,
# their weights, and the Gauss weights of x = 0, x_2, x_4, ..., x_14.
# Mirrored into the 31 nodes in ascending order, the 15 Gauss nodes sit at
# the odd positions.
_XK_HALF = (0.0, 0.1011420669187175, 0.20119409399743451, 0.29918000715316884,
            0.3941513470775634, 0.4850818636402397, 0.5709721726085388,
            0.650996741297417, 0.7244177313601701, 0.790418501442466,
            0.8482065834104272, 0.8972645323440819, 0.937273392400706,
            0.9677390756791391, 0.9879925180204854, 0.9980022986933971)
_WK_HALF = (0.10133000701479154, 0.10076984552387559, 0.09917359872179196,
            0.09664272698362368, 0.09312659817082532, 0.08856444305621176,
            0.08308050282313302, 0.07684968075772038, 0.06985412131872826,
            0.06200956780067064, 0.05348152469092809, 0.04458975132476488,
            0.03534636079137585, 0.02546084732671532, 0.015007947329316122,
            0.005377479872923349)
_WG_HALF = (0.2025782419255613, 0.19843148532711158, 0.1861610000155622,
            0.16626920581699392, 0.13957067792615432, 0.10715922046717194,
            0.07036604748810812, 0.03075324199611727)
_XK = np.array([-x for x in _XK_HALF[:0:-1]] + list(_XK_HALF))
_WK = np.array(_WK_HALF[:0:-1] + _WK_HALF)
_WG = np.array(_WG_HALF[:0:-1] + _WG_HALF)


class _CachedPanels:
    """Gauss-Kronrod quadrature panels with the s-independent factor cached.

    Each panel holds the 31 nodes of the Kronrod rule K31, whose odd
    positions are the 15 nodes of the Gauss rule G15; a panel splits in
    two while |K31 - G15| exceeds the tolerance.  The panels are rows of
    arrays and are refined in rounds: each round weights every live panel
    at once, splits all failing panels together and fills all the children
    with one call of ``f``, which maps an array of nodes to their values.
    The values are kept for later s, so an extension that is never
    evaluated costs no trace evaluations, and the accepted panels are
    summed with fsum, so the result does not depend on their order.
    """

    def __init__(self, f, panels: list[tuple[float, float]]):
        self.f = f
        self.lo, self.hi = np.array(panels, dtype=float).T
        self.depth = np.zeros(len(panels), dtype=int)
        self.x = self.v = None   # nodes and half-width times f, on first use

    def _fill(self, lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        x = 0.5 * (hi + lo)[:, None] + half * _XK
        return x, half * self.f(x.ravel()).reshape(x.shape)

    def integrate(self, weight, tol: float,
                  cut: float) -> list[tuple[complex, float]]:
        """(integral, error estimate) of weight * f over the panels below
        ``cut`` and, apart, over those above it."""
        if self.x is None:
            self.x, self.v = self._fill(self.lo, self.hi)
        live = (self.lo, self.hi, self.depth, self.x, self.v)
        accepted = []
        while True:
            lo, hi, depth, x, v = live
            fw = weight(x) * v
            k31 = np.sum(fw * _WK, axis=1)
            diff = np.abs(k31 - np.sum(fw[:, 1::2] * _WG, axis=1))
            split = (diff > tol) & (depth < PANEL_DEPTH)
            if not split.any():
                accepted.append((*live, k31, diff))
                break
            keep = ~split
            accepted.append(tuple(a[keep] for a in (*live, k31, diff)))
            lo, hi = lo[split], hi[split]
            mid = 0.5 * (lo + hi)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            live = (lo, hi, np.tile(depth[split] + 1, 2), *self._fill(lo, hi))
        self.lo, self.hi, self.depth, self.x, self.v, k31, diff = (
            np.concatenate(a) for a in zip(*accepted))
        below = self.hi <= cut
        return [(complex(math.fsum(k31[m].real), math.fsum(k31[m].imag)),
                 math.fsum(diff[m])) for m in (below, ~below)]


@dataclass
class ZetaExtension:
    """Meromorphic continuation built from a heat-trace model plus a tail."""

    model: HeatTraceModel
    gamma: complex
    t1: float
    n_max: int
    poles: list[Pole]
    # the numeric part of the Mellin integral: the trace beyond t1 and, for
    # an exact trace, the remainder K - model on (0, t1]
    panels: _CachedPanels
    last_error: float = 0.0

    def __post_init__(self):
        # the towers as arrays: location and coefficient of each live pole
        self._live = [p for p in self.poles if p.coefficient != 0]
        self._loc = np.array([p.location for p in self._live], dtype=complex)
        self._coef = np.array([p.coefficient for p in self._live], dtype=complex)

    def _bracket_terms(self, s: complex):
        removable = 0.0 + 0.0j
        hit_residue = 0.0 + 0.0j
        hit_loc = None
        d = s - self._loc
        coef = self._coef
        near = np.abs(d) < POLE_TOL
        if near.any():
            for i in np.flatnonzero(near):
                pole = self._live[i]
                coef_i, loc = pole.coefficient, pole.location
                if abs(pole.residue) > 1e-13 * (1.0 + abs(coef_i)):
                    hit_residue += pole.residue
                    hit_loc = loc
                else:
                    # 1/Gamma has a matching zero; the product has the
                    # finite limit coef * (-1)^j j! at loc = -j
                    j = int(round(-loc.real))
                    removable += coef_i * (-1) ** j * math.factorial(j)
            if hit_loc is not None:
                raise PoleError(
                    f"zeta evaluated at pole s={s!r}",
                    residue=hit_residue,
                    location=hit_loc,
                )
            d, coef = d[~near], coef[~near]
        # int_0^t1 t^(s-1-exp+n) dt = t1^d / d with d = s - loc
        bracket = complex(np.sum(coef * np.exp(d * math.log(self.t1)) / d))
        return bracket, removable

    def evaluate(self, s: complex) -> complex:
        s = complex(s)
        bracket, removable = self._bracket_terms(s)
        g = self.gamma

        def weight(t):
            return t ** (s - 1.0) * np.exp(-g * t)

        # the (0, t1] remainder and the tail: two fsum'd terms, added in turn
        (rest, rest_err), (tail, tail_err) = self.panels.integrate(
            weight, QUAD_TOL, self.t1)
        rg = gamma_reciprocal(s)
        self.last_error = (rest_err + tail_err + self.n_tail_bound(s)) * abs(rg)
        return rg * (bracket + rest + tail) + removable

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


def build_extension(model: HeatTraceModel, gamma: complex | None, tail,
                    t1: float | None = None,
                    n_max: int = N_MAX_DEFAULT) -> ZetaExtension:
    """Assemble the continuation from a model plus a representation of the trace.

    ``tail`` is a Spectrum, whose heat trace is integrated beyond t1 while
    the remainder on (0, t1] is taken as 0, or a callable t -> K(t) treated
    as the exact trace, whose remainder on (0, t1] is integrated too.  One
    set of cached quadrature panels holds both parts of the integral.

    ``gamma`` None is 1 for a Spectrum tail with a zero mode (a constant
    trace needs a shift to decay), else 0.  ``t1`` None is min(1, TAIL_DECAY
    / (lambda_max + gamma)) for a Spectrum tail, where its top mode has
    decayed (raised by ulps where the quotient rounds that product below
    TAIL_DECAY), else (or if that sum is not positive) 1.  Re gamma < 0 is
    rejected: e^(-gamma t) then grows without bound on the tail.
    """
    is_spectrum = isinstance(tail, Spectrum)
    if gamma is None:
        gamma = 1.0 if is_spectrum and tail.num_zero_modes else 0.0
    gamma = complex(gamma)
    if gamma.real < 0:
        raise DomainError(f"Re gamma = {gamma.real:g} < 0; the shift must be nonnegative")
    if t1 is None:
        top = tail.lambda_max + gamma.real if is_spectrum and tail.n else 0.0
        t1 = min(1.0, TAIL_DECAY / top) if top > 0 else 1.0
        # the quotient can round to a t1 that puts top * t1 an ulp short
        while t1 < 1.0 and top * t1 < TAIL_DECAY:
            t1 = math.nextafter(t1, math.inf)
    if t1 <= 0:
        raise DomainError("split point t1 must be positive")
    if is_spectrum:
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

        trace_fn = integrand = partial(trace_values, tail.modes)
    elif callable(tail):
        trace_fn = np.vectorize(tail, otypes=[float])  # one t per call

        def integrand(t):
            """K beyond t1, the remainder K - model below it."""
            k = trace_fn(t)
            below = t < t1
            m = model.evaluate(t[below]).real
            r = k[below] - m
            # below the rounding floor of the subtraction the remainder is
            # not representable; treat it as zero
            k[below] = np.where(np.abs(r) < 1e3 * 2.2e-16 * np.abs(m), 0.0, r)
            return k
    else:
        raise DomainError(f"unsupported tail representation {type(tail)!r}")

    # confirm the weighted trace decays, scanning outward from t1; a constant
    # Neumann mode with gamma = 0 never drops and is rejected
    probes = t1 * 2.0 ** np.arange(1, 40)
    weighted = np.abs(trace_fn(probes)) * np.exp(-gamma.real * probes)
    if not np.any(weighted < 1e-12):
        raise DomainError(
            "trace does not decay on the tail (constant mode?); "
            "a positive gamma shift is required"
        )
    # doubling panels outward from t1 to past the last probe still above
    # the underflow floor
    decayed = probes[weighted > 1e-320]
    top = max(decayed[-1] * 2.0 if decayed.size else 2.0 * t1, 4.0 * t1)
    bounds = [t1]
    while bounds[-1] < top:
        bounds.append(bounds[-1] * 2.0)
    if not is_spectrum:
        # and geometric panels toward 0 for the remainder
        bounds = [0.0] + [t1 * 2.0 ** (-j) for j in range(40, 0, -1)] + bounds
    return ZetaExtension(model=model, gamma=gamma, t1=t1, n_max=n_max,
                         poles=_build_poles(model, gamma, n_max),
                         panels=_CachedPanels(integrand, list(zip(bounds[:-1], bounds[1:]))))


def zeta_extended(ext: ZetaExtension, s: complex) -> complex:
    """Evaluate the continuation; raises PoleError at poles with residue."""
    return ext.evaluate(s)


def casimir_energy(source) -> float:
    """E_Cas = (1/2) zeta(-1/2) at gamma = 0.

    For a finite Spectrum the zeta function is entire and the value is the
    plain half-sum of mode frequencies (0 for an empty spectrum); for an
    extension it is the continued value, whose imaginary part must vanish.
    """
    if isinstance(source, Spectrum):
        if source.n == 0:
            return 0.0
        return 0.5 * float(np.sum(np.sqrt(source.modes)))
    ext = source
    if ext.gamma != 0:
        raise DomainError("Casimir energy is defined for the gamma = 0 extension")
    v = ext.evaluate(-0.5 + 0.0j)
    if abs(v.imag) > 1e-8 * max(1.0, abs(v.real)):
        raise ConvergenceError(
            f"zeta(-1/2) has non-negligible imaginary part {float(v.imag)}"
        )
    return 0.5 * v.real

