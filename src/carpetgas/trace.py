"""Heat-kernel traces, spectral-dimension fits, log-periodic coefficients.

K(t) = sum_j exp(-t*lambda_j) decays like t^(-d_s/2) * G_0(-log t) with
G_0 periodic of period log R; this module measures d_s, detects or accepts
the period, and projects out the Fourier coefficients G_{k,p} that the zeta
and thermodynamics modules consume.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_open
from .errors import DomainError, InsufficientDataError
from .eigensolve import Spectrum

ANALYSIS_VERSION = "numpy-sum-1"  # keys the CLI model cache; bump when analyze output moves
P_MAX_DEFAULT = 5
# Fit window: clear of the few-modes floor and the all-modes ceiling.
FIT_WINDOW = (10.0, 0.1)
# Fourier window is wider; projection tolerates the window edges better
# than a slope fit and needs >= 2 whole periods.
FOURIER_WINDOW = (4.0, 0.25)
ANALYSIS_POINTS = 900  # t points of analyze's heat-trace grid
# counting_ratio's grid: this many points, uniform in log s from s = 2
# (clear of the few lowest modes) to the top of the spectrum
COUNTING_POINTS = 4096
COUNTING_S_MIN = 2.0
PERIOD_MIN = 0.8  # the shortest period dominant_log_period reports, in log units
G0_SAMPLES = 10000  # g0_extrema's samples per period
# Zero-padding factor of dominant_log_period's FFT: bins 1/OVERSAMPLE of
# the unpadded spacing 1/(n dx) apart.
OVERSAMPLE = 16
# exp(-x) rounds to 0.0 in float64 for every x above about 745.13; the
# margin keeps rounding in t * lambda and EXP_UNDERFLOW / t off that edge.
EXP_UNDERFLOW = 746.0


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

    def __post_init__(self):
        # Python floats, for the reason given in ModelTerm
        self.period = float(self.period)
        self.d_s = float(self.d_s)
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


def flat_model(d_s: float) -> HeatTraceModel:
    """The flat unit-volume law K(t) = (4 pi t)^(-d_s/2): one (0, 0) term, period 1."""
    coef = (4.0 * math.pi) ** (-d_s / 2.0)
    return HeatTraceModel(terms=[ModelTerm(0, 0, complex(d_s / 2.0), complex(coef))],
                          period=1.0, d_s=d_s)


@dataclass
class WeylSeries:
    """Heat trace samples K(t) on an increasing t grid."""

    t: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.K = np.asarray(self.K, dtype=np.float64)
        if self.t.ndim != 1 or self.t.shape != self.K.shape:
            raise ValueError("t and K must be matching 1-d arrays")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("t grid must be strictly increasing")

    def weyl_ratio(self, d_s: float) -> np.ndarray:
        return self.K * self.t ** (0.5 * d_s)


def trace_values(eigenvalues: np.ndarray, t) -> np.ndarray:
    """K at each point of ``t``, shaped like ``t``, for ascending eigenvalues.

    Every term with t lambda > EXP_UNDERFLOW is exactly 0.0 in float64, so
    exp runs only on the prefix of the spectrum below that edge (one
    searchsorted for all points) and the rest of one reused scratch array
    holds stored zeros.  Each point is still one pairwise sum over the full
    length, so K is bit for bit sum(exp(-t * eigenvalues)).
    """
    t = np.asarray(t, dtype=np.float64)
    ts = t.ravel().tolist()
    ends = np.searchsorted(eigenvalues, [EXP_UNDERFLOW / ti if ti > 0.0 else math.inf
                                         for ti in ts], side="right")
    terms = np.empty(eigenvalues.shape)
    zeros_from = terms.size   # terms[zeros_from:] holds stored zeros
    out = np.empty(len(ts))
    for i, (ti, end) in enumerate(zip(ts, ends.tolist())):
        head = terms[:end]
        np.multiply(eigenvalues[:end], -ti, out=head)
        np.exp(head, out=head)
        if end < zeros_from:
            terms[end:zeros_from] = 0.0
        zeros_from = end
        out[i] = np.add.reduce(terms)
    return out.reshape(t.shape)


def heat_trace(spectrum: Spectrum, t_grid) -> WeylSeries:
    """K(t) = sum_j exp(-t lambda_j) on ``t_grid``, by trace_values.

    K sums over the spectrum's modes, in ascending order, so each point
    evaluates exp only below the underflow edge and sums the stored zeros
    past it.  numpy sums pairwise over the full length, and every term is
    nonnegative, so the relative error stays within a small multiple of
    eps * log2(n) (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sec. 4.2).
    """
    if spectrum.n == 0:
        raise ValueError("empty spectrum")
    t = np.asarray(t_grid, dtype=np.float64)
    if np.any(t <= 0):
        raise DomainError("t grid must be positive")
    return WeylSeries(t=t, K=trace_values(spectrum.modes, t))


def _moments(eigenvalues: np.ndarray, t: float) -> tuple[float, float]:
    """(sum lambda e^(-t lambda), sum lambda^2 e^(-t lambda)) over the
    ascending eigenvalues below the underflow edge, as trace_values cuts."""
    head = eigenvalues[:np.searchsorted(eigenvalues, EXP_UNDERFLOW / t, side="right")]
    weighted = head * np.exp(-t * head)
    return float(np.add.reduce(weighted)), float(np.dot(weighted, head))


def t_at_trace(spectrum: Spectrum, target: float) -> float:
    """t such that K(t) = target, by bracketed Newton steps in x = log t on
    [-60, 60] (at most 200 passes); the result is the bisection's bit for bit.

    K is evaluated on the spectrum's modes, which are nonnegative, so K as
    computed is non-increasing in x: rounding is monotone and the pairwise
    sum has a fixed length.  Each pass reads K by trace_values and narrows
    the bracket as bisection does (x becomes lo where K > target, hi
    otherwise), and the loop stops where bisection stops, when no float lies
    strictly between lo and hi.  That adjacent-float bracket is unique, so
    the path to it does not change exp((lo + hi) / 2).

    The next x is a Newton step on log K from the latest point, with slope
    -t M1 / K and curvature from the moments M1, M2 over the same underflow
    prefix, aimed past the root by twice |curvature / slope| times the step
    squared (four times the step's predicted error), and by at least one ulp
    of x and the x-width of one ulp of K, so the bracket closes from both
    sides.  If that point leaves (lo, hi) the unpadded step is taken; the
    midpoint is taken when both leave, after a point with no negative
    slope, and when the bracket did not halve over the last two passes.
    """
    n = spectrum.n
    floor = spectrum.num_zero_modes
    if not floor < target < n:
        raise DomainError(f"target {target} outside (zero modes, n) = ({floor}, {n})")
    ev = spectrum.modes
    lo, hi = -60.0, 60.0
    aim = past = math.nan
    width = before = hi - lo   # the bracket width one and two passes back
    for _ in range(200):
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            break
        if hi - lo <= 0.5 * before:
            if lo < past < hi:
                x = past
            elif lo < aim < hi:
                x = aim
        before, width = width, hi - lo
        t = math.exp(x)
        k = float(trace_values(ev, t))
        if k > target:
            lo = x
        else:
            hi = x
        aim = past = math.nan
        if k > 0.0:
            m1, m2 = _moments(ev, t)
            slope = -t * m1 / k
            ratio = target / k   # 0.0 only for a target below k * 2^-1074
            if slope < 0.0 and ratio > 0.0:
                step = math.log(ratio) / slope
                aim = x + step
                curve = slope + t * t * (m2 / k - (m1 / k) * (m1 / k))
                pad = max(2.0 * abs(curve / slope) * step * step, math.ulp(aim),
                          math.ulp(k) / (k * -slope))
                past = aim + pad if k > target else aim - pad
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
                    window: tuple[float, float],
                    p_max: int = P_MAX_DEFAULT) -> HeatTraceModel:
    """Project W(t) = K t^(d_s/2) onto Fourier modes in x = -log t.

    Averages over the last M whole periods inside the t window (Cesaro sense);
    fewer than 2 whole periods is an error.  Coefficients for -p are the
    conjugates by construction.
    """
    if period <= 0:
        raise DomainError("period must be positive")
    mask = (series.t >= window[0]) & (series.t <= window[1])
    t = series.t[mask]
    W_all = series.weyl_ratio(d_s)[mask]
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
    return HeatTraceModel(terms=terms, period=period, d_s=d_s)


def counting_ratio(spectrum: Spectrum, d_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Weyl ratio of the eigenvalue counting function, W = N(s) / s^(d_s/2).

    s is the eigenvalue normalized by the lowest nonzero one, the grid is
    COUNTING_POINTS points from COUNTING_S_MIN to the top of the spectrum,
    uniform in x = log s (the natural domain of the log-periodic factor).
    Returns (x, W).
    """
    s_vals = spectrum.modes / spectrum.lambda1
    top = float(s_vals[-1])
    if not COUNTING_S_MIN < top:
        raise DomainError(f"need lambda_max / lambda_1 > {COUNTING_S_MIN:g}, got {top}")
    x = np.linspace(math.log(COUNTING_S_MIN), math.log(top), COUNTING_POINTS)
    s = np.exp(x)
    N = np.searchsorted(s_vals, s, side="left").astype(np.float64)
    return x, N / s ** (0.5 * d_s)


def dominant_log_period(x, values) -> tuple[float, float]:
    """Strongest periodic component of a sampled curve, period in x units.

    Returns (period, relative amplitude).  The samples are interpolated onto
    n uniform points dx apart, linearly detrended, Hann tapered, and read by
    one rfft zero-padded to OVERSAMPLE * n, whose bins are
    1/(OVERSAMPLE * n * dx) apart; relative amplitude is the peak magnitude
    divided by the mean of the input.  A period is only reported if it is at
    least PERIOD_MIN and fits at least twice into the span; a range that is
    empty or holds no bin is a DomainError, and pure power-law input
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
    p_lo, p_hi = PERIOD_MIN, span / 2.0
    if not p_lo < p_hi:
        raise DomainError(f"bad period range ({p_lo}, {p_hi})")
    coef = np.polyfit(xs, ws, 1)
    taper = np.hanning(n)
    detr = (ws - np.polyval(coef, xs)) * taper
    norm = 2.0 / np.sum(taper)
    size = OVERSAMPLE * n
    n_bins = size // 2 + 1
    step = 1.0 / (size * (span / (n - 1)))   # the bin spacing of np.fft.rfftfreq

    def bins_below(f):
        """Count of the bins k whose frequency k * step, as rfftfreq rounds it, is < f."""
        k = math.ceil(min(f / step, n_bins))
        while k > 0 and (k - 1) * step >= f:
            k -= 1
        while k < n_bins and k * step < f:
            k += 1
        return k

    k_lo = bins_below(1.0 / p_hi)
    k_end = bins_below(math.nextafter(1.0 / p_lo, math.inf))
    if k_lo >= k_end:
        raise DomainError(f"no frequency bin in the period range ({p_lo}, {p_hi})")
    amps = np.abs(np.fft.rfft(detr, size)[k_lo:k_end]) * norm
    j = int(np.argmax(amps))
    return 1.0 / float((k_lo + j) * step), float(amps[j]) / abs(mean) if mean else float("inf")


def spectral_volume(model: HeatTraceModel, length: float) -> float:
    """V_s = (4 pi)^(d_s/2) * G_{0,0} * L^(d_s)."""
    if model.g00 <= 0:
        raise DomainError("leading Fourier coefficient must be positive")
    if length < 0:
        raise DomainError("length must be nonnegative")
    return (4.0 * math.pi) ** (model.d_s / 2.0) * model.g00 * length**model.d_s


def g0_extrema(model: HeatTraceModel) -> tuple[float, float]:
    """(min, max) of the reconstructed G_0 over one period.

    Dense sampling (G0_SAMPLES points) plus one parabolic refinement
    through the winning sample and its neighbours; exact for a
    trigonometric polynomial to well below the sampling error.
    """
    xs = np.linspace(0.0, model.period, G0_SAMPLES, endpoint=False)
    vals = model.g_profile(0, xs)
    if np.max(np.abs(vals.imag)) > 1e-10 * max(np.max(np.abs(vals.real)), 1e-300):
        raise DomainError("reconstructed G_0 is not real")
    re = vals.real
    h = model.period / G0_SAMPLES

    def refine(idx):
        a = re[(idx - 1) % G0_SAMPLES]
        b = re[idx]
        c = re[(idx + 1) % G0_SAMPLES]
        denom = a - 2.0 * b + c
        if denom == 0.0:
            return b
        off = 0.5 * (a - c) / denom
        off = min(max(off, -1.0), 1.0)
        x = xs[idx] + off * h
        return float(model.g_profile(0, x).real)

    return refine(int(np.argmin(re))), refine(int(np.argmax(re)))


def analyze(spectrum: Spectrum, spec=None, p_max: int = P_MAX_DEFAULT) -> dict:
    """Windows -> trace -> d_s fit -> period -> Fourier model, bundled."""
    windows = default_windows(spectrum)
    t_lo = min(windows["fit"][0], windows["fourier"][0])
    t_hi = max(windows["fit"][1], windows["fourier"][1])
    series = heat_trace(spectrum, log_grid(t_lo, t_hi, ANALYSIS_POINTS))
    d_s, stderr = fit_spectral_dimension(series, windows["fit"])
    if spec is not None:
        period = estimate_period(spec, d_s)
    else:
        # counting-function domain: the log-periodic factor survives there,
        # while the heat trace suppresses it by a fast-decaying Gamma factor
        period, _ = dominant_log_period(*counting_ratio(spectrum, d_s))
    model = extract_fourier(series, d_s, period, windows["fourier"], p_max=p_max)
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
        "period": model.period,
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
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=1)


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
    )
