"""Heat-kernel traces, spectral-dimension fits, log-periodic coefficients.

K(t) = sum_j exp(-t*lambda_j) decays like t^(-d_s/2) * G_0(-log t) with
G_0 periodic of period log R; this module measures d_s, detects or accepts
the period, and projects out the Fourier coefficients G_{k,p} that the zeta
and thermodynamics modules consume.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError
from .eigensolve import Spectrum

ANALYSIS_VERSION = "numpy-sum-1"  # keys the CLI model cache; bump when analyze output moves
P_MAX_DEFAULT = 5
# Fit window: clear of the few-modes floor and the all-modes ceiling.
FIT_WINDOW = (10.0, 0.1)
# Fourier window is wider; projection tolerates the window edges better
# than a slope fit and needs >= 2 whole periods.
FOURIER_WINDOW = (4.0, 0.25)
# Zero-padding factor of dominant_log_period's FFT: bins 1/OVERSAMPLE of
# the unpadded spacing 1/(n dx) apart.
OVERSAMPLE = 16


@dataclass
class ModelTerm:
    k: int
    p: int
    exponent: complex
    coefficient: complex

    def __post_init__(self):
        # Python scalars, as load_model reads them: numpy and Python complex
        # arithmetic can differ in the last bit, and a model read back from
        # its cache must compute exactly what the analysed one does.
        self.exponent = complex(self.exponent)
        self.coefficient = complex(self.coefficient)


@dataclass
class HeatTraceModel:
    """Fourier-resolved short-time expansion of the heat trace.

    K(t) ~ sum_terms coefficient * t^(-exponent) with
    exponent(k, p) = d_k/d_w + 2*pi*i*p/period.
    """

    terms: list[ModelTerm]
    period: float
    d_s: float
    d_w: float | None = None
    remainder: str = "stretched-exponential"

    def __post_init__(self):
        # Python floats, for the reason given in ModelTerm
        self.period = float(self.period)
        self.d_s = float(self.d_s)
        if self.d_w is not None:
            self.d_w = float(self.d_w)
        by_kp = {(t.k, t.p): t.coefficient for t in self.terms}
        for (k, p), c in by_kp.items():
            if (k, -p) in by_kp:
                mate = by_kp[(k, -p)]
                if abs(mate - c.conjugate()) > 1e-12 * max(1.0, abs(c)):
                    raise ValueError(f"coefficients ({k},{p})/({k},{-p}) not conjugate")
        g00 = by_kp.get((0, 0))
        if g00 is None or not (g00.real > 0 and abs(g00.imag) <= 1e-12 * g00.real):
            raise ValueError("leading coefficient (0,0) must be positive real")

    def coefficient(self, k: int, p: int) -> complex:
        for t in self.terms:
            if t.k == k and t.p == p:
                return t.coefficient
        return 0.0 + 0.0j

    @property
    def g00(self) -> float:
        return self.coefficient(0, 0).real

    def evaluate(self, t: float) -> complex:
        """Model prediction of K(t) (without the remainder)."""
        return sum(term.coefficient * t ** (-term.exponent) for term in self.terms)

    def g_profile(self, k: int, x):
        """G_k(x) = sum_p coefficient(k,p) e^{2 pi i p x / period}, elementwise in x."""
        acc = np.zeros(np.shape(x), dtype=np.complex128)
        for term in self.terms:
            if term.k == k:
                acc = acc + term.coefficient * np.exp(2j * math.pi * term.p * x / self.period)
        return acc


@dataclass
class WeylSeries:
    """Heat trace samples K(t) on an increasing t grid."""

    t: np.ndarray
    K: np.ndarray
    d_s: float | None = None
    window: tuple[float, float] | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.K = np.asarray(self.K, dtype=np.float64)
        if self.t.ndim != 1 or self.t.shape != self.K.shape:
            raise ValueError("t and K must be matching 1-d arrays")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("t grid must be strictly increasing")

    def weyl_ratio(self, d_s: float | None = None) -> np.ndarray:
        ds = self.d_s if d_s is None else d_s
        if ds is None:
            raise ValueError("no spectral dimension attached")
        return self.K * self.t ** (0.5 * ds)


def trace_values(eigenvalues: np.ndarray, t) -> np.ndarray:
    """K at each point of ``t``, shaped like ``t``; one pairwise sum per point."""
    t = np.asarray(t, dtype=np.float64)
    return np.array([np.sum(np.exp(-ti * eigenvalues)) for ti in t.ravel()]).reshape(t.shape)


def heat_trace(spectrum: Spectrum, t_grid) -> WeylSeries:
    """K(t) = sum_j exp(-t lambda_j) on ``t_grid``, by trace_values.

    numpy sums pairwise, and every term is positive, so the relative error
    stays within a small multiple of eps * log2(n) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 4.2).
    """
    if spectrum.n == 0:
        raise ValueError("empty spectrum")
    t = np.asarray(t_grid, dtype=np.float64)
    if np.any(t <= 0):
        raise DomainError("t grid must be positive")
    return WeylSeries(t=t, K=trace_values(spectrum.eigenvalues, t))


def trace_value(spectrum: Spectrum, t: float) -> float:
    return float(trace_values(spectrum.eigenvalues, t))


def t_at_trace(spectrum: Spectrum, target: float) -> float:
    """t such that K(t) = target, by bisection in x = log t on [-60, 60]
    (at most 200 halvings).

    K is evaluated on the eigenvalues clipped at 0, so a ground mode that
    rounding left just below zero counts as the kernel mode it is and K is
    non-increasing in t on every input.
    """
    n = spectrum.n
    floor = spectrum.num_zero_modes
    if not floor < target < n:
        raise DomainError(f"target {target} outside (zero modes, n) = ({floor}, {n})")
    ev = np.maximum(spectrum.eigenvalues, 0.0)
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if float(trace_values(ev, math.exp(mid))) > target:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def default_windows(spectrum: Spectrum) -> dict:
    """Fit and Fourier t windows from the trace-level heuristics."""
    n = spectrum.n
    fit = (t_at_trace(spectrum, FIT_WINDOW[1] * n), t_at_trace(spectrum, FIT_WINDOW[0]))
    four = (t_at_trace(spectrum, FOURIER_WINDOW[1] * n), t_at_trace(spectrum, FOURIER_WINDOW[0]))
    return {"fit": fit, "fourier": four}


def log_grid(t_min: float, t_max: float, points: int = 600) -> np.ndarray:
    """Grid uniform in x = -log t (so Fourier projection is uniform too)."""
    if not 0 < t_min < t_max:
        raise DomainError("need 0 < t_min < t_max")
    return np.exp(np.linspace(math.log(t_min), math.log(t_max), points))


def fit_spectral_dimension(series: WeylSeries,
                           window: tuple[float, float]) -> tuple[float, float]:
    """Least-squares slope of log K vs log t; d_s = -2*slope, with stderr."""
    t_lo, t_hi = window
    mask = (series.t >= t_lo) & (series.t <= t_hi) & (series.K > 0)
    if np.count_nonzero(mask) < 20:
        raise InsufficientDataError(
            f"fit window [{t_lo:g}, {t_hi:g}] holds {np.count_nonzero(mask)} points (< 20)"
        )
    x = np.log(series.t[mask])
    y = np.log(series.K[mask])
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = np.sum((x - xm) * (y - ym)) / sxx
    resid = y - (ym + slope * (x - xm))
    var = np.sum(resid**2) / max(n - 2, 1)
    stderr_slope = math.sqrt(var / sxx)
    return -2.0 * slope, 2.0 * stderr_slope


def estimate_period(spec, d_s: float) -> float:
    """log R = (2/d_s) log m, which is d_w log l with d_w = 2 d_h / d_s."""
    if not 0 < d_s <= spec.d:
        raise DomainError(f"d_s={float(d_s)} outside (0, {spec.d}]")
    return (2.0 / d_s) * math.log(spec.m)


def extract_fourier(series: WeylSeries, d_s: float, period: float,
                    p_max: int = P_MAX_DEFAULT,
                    window: tuple[float, float] | None = None,
                    d_w: float | None = None) -> HeatTraceModel:
    """Project W(t) = K t^(d_s/2) onto Fourier modes in x = -log t.

    Averages over the last M whole periods inside the window (Cesaro sense);
    fewer than 2 whole periods is an error.  Coefficients for -p are the
    conjugates by construction.
    """
    if period <= 0:
        raise DomainError("period must be positive")
    t = series.t
    if window is not None:
        mask = (t >= window[0]) & (t <= window[1])
        t = t[mask]
        W_all = series.weyl_ratio(d_s)[mask]
    else:
        W_all = series.weyl_ratio(d_s)
    if t.size < 8:
        raise InsufficientDataError("too few grid points for projection")
    x = -np.log(t)[::-1]  # ascending x
    W = W_all[::-1]
    span = x[-1] - x[0]
    m_periods = int(math.floor(span / period + 1e-12))
    if m_periods < 2:
        raise InsufficientDataError(
            f"window spans {span / period:.3f} periods; need >= 2 whole periods"
        )
    x_hi = x[-1]
    x_lo = x_hi - m_periods * period
    sel = x >= x_lo - 1e-12
    xs, ws = x[sel], W[sel]
    if xs[0] > x_lo + 1e-13 * span:
        # the exact M-period endpoint lies between grid points; include it
        xs = np.concatenate(([x_lo], xs))
        ws = np.concatenate(([np.interp(x_lo, x, W)], ws))
    terms = []
    for p in range(0, p_max + 1):
        integrand = ws * np.exp(-2j * math.pi * p * xs / period)
        coef = np.trapezoid(integrand, xs) / (m_periods * period)
        if p == 0:
            coef = complex(coef.real, 0.0)
        exp_p = d_s / 2 + 2j * math.pi * p / period
        terms.append(ModelTerm(0, p, exp_p, coef))
        if p > 0:
            terms.append(ModelTerm(0, -p, exp_p.conjugate(), coef.conjugate()))
    remainder = "stretched-exponential"
    if d_w is not None and d_w > 1:
        remainder = f"stretched-exponential(rate exponent {1.0 / (d_w - 1.0):.6g})"
    return HeatTraceModel(terms=terms, period=period, d_s=d_s, d_w=d_w,
                          remainder=remainder)


def counting_ratio(spectrum: Spectrum, d_s: float, points: int = 4096,
                   s_min: float = 2.0,
                   s_max: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Weyl ratio of the eigenvalue counting function, W = N(s) / s^(d_s/2).

    s is the eigenvalue normalized by the lowest nonzero one, the grid is
    uniform in x = log s (the natural domain of the log-periodic factor).
    Returns (x, W).
    """
    lam1 = spectrum.lambda1
    s_vals = spectrum.eigenvalues / lam1
    top = s_max if s_max is not None else float(s_vals[-1])
    if not 0 < s_min < top:
        raise DomainError(f"need 0 < s_min < s_max, got [{s_min}, {top}]")
    x = np.linspace(math.log(s_min), math.log(top), points)
    s = np.exp(x)
    N = np.searchsorted(s_vals, s, side="left").astype(np.float64)
    return x, N / s ** (0.5 * d_s)


def dominant_log_period(x, values,
                        period_range: tuple[float, float | None] = (0.8, None)
                        ) -> tuple[float, float]:
    """Strongest periodic component of a sampled curve, period in x units.

    Returns (period, relative amplitude).  The samples are interpolated onto
    n uniform points dx apart, linearly detrended, Hann tapered, and read by
    one rfft zero-padded to OVERSAMPLE * n, whose bins are
    1/(OVERSAMPLE * n * dx) apart; relative amplitude is the peak magnitude
    divided by the mean of the input.  A period is only reported if it fits
    at least twice into the span (an upper range limit of None means span/2),
    a range that holds no bin is a DomainError, and pure power-law input
    stays below 1e-6 relative (no false positives).
    """
    x = np.asarray(x, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.shape != values.shape or x.size < 16:
        raise DomainError("need matching 1-d arrays with >= 16 samples")
    if x[0] > x[-1]:
        x, values = x[::-1], values[::-1]
    n = int(min(4096, max(256, 2 * x.size)))
    xs = np.linspace(x[0], x[-1], n)
    ws = np.interp(xs, x, values)
    mean = float(np.mean(ws))
    span = xs[-1] - xs[0]
    p_lo, p_hi = period_range
    if p_hi is None:
        p_hi = span / 2.0
    if not 0 < p_lo < p_hi:
        raise DomainError(f"bad period range ({p_lo}, {p_hi})")
    coef = np.polyfit(xs, ws, 1)
    taper = np.hanning(n)
    detr = (ws - np.polyval(coef, xs)) * taper
    norm = 2.0 / np.sum(taper)
    freqs = np.fft.rfftfreq(OVERSAMPLE * n, span / (n - 1))
    band = (freqs >= 1.0 / p_hi) & (freqs <= 1.0 / p_lo)
    if not band.any():
        raise DomainError(f"no frequency bin in the period range ({p_lo}, {p_hi})")
    amps = np.abs(np.fft.rfft(detr, OVERSAMPLE * n)[band]) * norm
    j = int(np.argmax(amps))
    return 1.0 / float(freqs[band][j]), float(amps[j]) / abs(mean) if mean else float("inf")


def spectral_volume(model: HeatTraceModel, length: float) -> float:
    """V_s = (4 pi)^(d_s/2) * G_{0,0} * L^(d_s)."""
    if model.g00 <= 0:
        raise DomainError("leading Fourier coefficient must be positive")
    if length < 0:
        raise DomainError("length must be nonnegative")
    return (4.0 * math.pi) ** (model.d_s / 2.0) * model.g00 * length**model.d_s


def g0_extrema(model: HeatTraceModel, samples: int = 10000) -> tuple[float, float]:
    """(min, max) of the reconstructed G_0 over one period.

    Dense sampling plus one parabolic refinement through the winning sample
    and its neighbours; exact for a trigonometric polynomial to well below
    the sampling error.
    """
    xs = np.linspace(0.0, model.period, samples, endpoint=False)
    vals = model.g_profile(0, xs)
    if np.max(np.abs(vals.imag)) > 1e-10 * max(np.max(np.abs(vals.real)), 1e-300):
        raise DomainError("reconstructed G_0 is not real")
    re = vals.real
    h = model.period / samples

    def refine(idx):
        a = re[(idx - 1) % samples]
        b = re[idx]
        c = re[(idx + 1) % samples]
        denom = a - 2.0 * b + c
        if denom == 0.0:
            return b
        off = 0.5 * (a - c) / denom
        off = min(max(off, -1.0), 1.0)
        x = xs[idx] + off * h
        return float(model.g_profile(0, x).real)

    return refine(int(np.argmin(re))), refine(int(np.argmax(re)))


def analyze(spectrum: Spectrum, spec=None, p_max: int = P_MAX_DEFAULT,
            points: int = 900) -> dict:
    """Windows -> trace -> d_s fit -> period -> Fourier model, bundled."""
    windows = default_windows(spectrum)
    t_lo = min(windows["fit"][0], windows["fourier"][0])
    t_hi = max(windows["fit"][1], windows["fourier"][1])
    series = heat_trace(spectrum, log_grid(t_lo, t_hi, points))
    d_s, stderr = fit_spectral_dimension(series, windows["fit"])
    series.d_s = d_s
    series.window = windows["fit"]
    if spec is not None:
        period = estimate_period(spec, d_s)
        d_w = 2.0 * spec.d_h / d_s
    else:
        # counting-function domain: the log-periodic factor survives there,
        # while the heat trace suppresses it by a fast-decaying Gamma factor
        period, _ = dominant_log_period(*counting_ratio(spectrum, d_s))
        d_w = None
    model = extract_fourier(series, d_s, period, p_max=p_max,
                            window=windows["fourier"], d_w=d_w)
    return {
        "series": series,
        "d_s": d_s,
        "d_s_stderr": stderr,
        "period": period,
        "model": model,
        "windows": windows,
    }


def save_model(model: HeatTraceModel, path: str) -> None:
    payload = {
        "d_s": model.d_s,
        "d_w": model.d_w,
        "period": model.period,
        "remainder": model.remainder,
        "terms": [
            {
                "k": t.k,
                "p": t.p,
                "exponent": [t.exponent.real, t.exponent.imag],
                "coefficient": [t.coefficient.real, t.coefficient.imag],
            }
            for t in model.terms
        ],
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1)
    os.replace(tmp, path)


def load_model(path: str) -> HeatTraceModel:
    with open(path) as fh:
        payload = json.load(fh)
    terms = [
        ModelTerm(
            int(t["k"]),
            int(t["p"]),
            complex(t["exponent"][0], t["exponent"][1]),
            complex(t["coefficient"][0], t["coefficient"][1]),
        )
        for t in payload["terms"]
    ]
    return HeatTraceModel(
        terms=terms,
        period=float(payload["period"]),
        d_s=float(payload["d_s"]),
        d_w=payload.get("d_w"),
        remainder=payload.get("remainder", "stretched-exponential"),
    )
