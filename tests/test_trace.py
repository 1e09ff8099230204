"""Heat-trace structure: dimension fits, log-periodic extraction, models."""

import cmath
import math

import numpy as np
import pytest

from carpetgas.eigensolve import Spectrum
from carpetgas.errors import DomainError, InsufficientDataError
from carpetgas.oracle import box_spectrum, interval_trace_exact, unit_box
from carpetgas.trace import (
    OVERSAMPLE,
    HeatTraceModel,
    ModelTerm,
    WeylSeries,
    analyze,
    counting_ratio,
    default_windows,
    dominant_log_period,
    estimate_period,
    extract_fourier,
    fit_spectral_dimension,
    g0_extrema,
    heat_trace,
    load_model,
    log_grid,
    save_model,
    spectral_volume,
    t_at_trace,
    trace_value,
    trace_values,
)


def planted_model(g0=2.0, a=0.15, phi=0.7, period=1.25, d_s=1.6):
    terms = [
        ModelTerm(0, 0, complex(d_s / 2), complex(g0)),
        ModelTerm(0, 1, complex(d_s / 2, 2 * math.pi / period), a * cmath.exp(1j * phi)),
        ModelTerm(0, -1, complex(d_s / 2, -2 * math.pi / period), a * cmath.exp(-1j * phi)),
    ]
    return HeatTraceModel(terms=terms, period=period, d_s=d_s)


class TestHeatTraceModel:
    def test_coefficient_lookup(self):
        m = planted_model()
        assert m.coefficient(0, 0) == 2.0
        assert m.coefficient(0, 3) == 0.0
        assert m.g00 == 2.0

    def test_conjugate_symmetry_enforced(self):
        terms = [
            ModelTerm(0, 0, complex(1.0), complex(1.0)),
            ModelTerm(0, 1, complex(1.0, 2.0), 0.1 + 0.2j),
            ModelTerm(0, -1, complex(1.0, -2.0), 0.1 + 0.2j),  # not the conjugate
        ]
        with pytest.raises(ValueError):
            HeatTraceModel(terms=terms, period=1.0, d_s=2.0)

    def test_leading_coefficient_required(self):
        with pytest.raises(ValueError):
            HeatTraceModel(
                terms=[ModelTerm(0, 0, complex(1.0), complex(-1.0))],
                period=1.0,
                d_s=2.0,
            )
        with pytest.raises(ValueError):
            HeatTraceModel(
                terms=[ModelTerm(1, 0, complex(0.5), complex(1.0))],
                period=1.0,
                d_s=2.0,
            )

    def test_evaluate_matches_hand_sum(self):
        m = planted_model()
        t = 0.37
        x = -math.log(t)
        expect = t ** (-0.8) * (2.0 + 2 * 0.15 * math.cos(2 * math.pi * x / 1.25 + 0.7))
        assert m.evaluate(t).real == pytest.approx(expect, rel=1e-12)
        assert abs(m.evaluate(t).imag) < 1e-12

    def test_g_profile_reconstructs_ripple(self):
        m = planted_model()
        for x in (0.0, 0.3, 1.0):
            expect = 2.0 + 2 * 0.15 * math.cos(2 * math.pi * x / 1.25 + 0.7)
            assert m.g_profile(0, x).real == pytest.approx(expect, rel=1e-12)


class TestWeylSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeylSeries(t=np.array([1.0, 2.0]), K=np.array([1.0]))
        with pytest.raises(ValueError):
            WeylSeries(t=np.array([1.0, 1.0]), K=np.array([1.0, 1.0]))

    def test_weyl_ratio(self):
        s = WeylSeries(t=np.array([0.25, 1.0]), K=np.array([4.0, 1.0]), d_s=2.0)
        assert np.allclose(s.weyl_ratio(), [1.0, 1.0])
        assert np.allclose(s.weyl_ratio(4.0), [0.25, 1.0])
        s.d_s = None
        with pytest.raises(ValueError):
            s.weyl_ratio()


class TestHeatTrace:
    def test_matches_interval_oracle(self):
        spec = box_spectrum(unit_box(1), cutoff=4.0e4)
        grid = log_grid(0.01, 1.0, 40)
        series = heat_trace(spec, grid)
        for t, k in zip(series.t, series.K):
            assert k == pytest.approx(interval_trace_exact(t), rel=1e-13)

    def test_pairwise_sum_matches_fsum(self):
        rng = np.random.default_rng(42)
        ev = np.sort(rng.uniform(0.0, 50.0, size=50_000))
        spec = Spectrum(eigenvalues=ev)
        t = 0.1
        expect = math.fsum(math.exp(-t * x) for x in ev.tolist())
        assert trace_value(spec, t) == pytest.approx(expect, rel=1e-15)

    def test_trace_values_match_fsum_on_sc31_l4(self, sc31_l4_neumann,
                                                sc31_l4_analysis):
        # n = 4096, on the analyze grid
        ev = sc31_l4_neumann.eigenvalues
        grid = sc31_l4_analysis["series"].t
        got = trace_values(ev, grid)
        assert got.shape == grid.shape
        for t, k in zip(grid, got):
            assert k == pytest.approx(math.fsum(np.exp(-t * ev).tolist()), rel=1e-15)

    def test_heat_trace_agrees_with_trace_value_exactly(self, ms31_l3_neumann):
        grid = log_grid(1e-3, 1e2, 50)
        series = heat_trace(ms31_l3_neumann, grid)
        for t, k in zip(grid, series.K):
            assert k == trace_value(ms31_l3_neumann, t)

    def test_domain(self):
        spec = box_spectrum(unit_box(1), cutoff=1000.0)
        with pytest.raises(DomainError):
            heat_trace(spec, [0.0, 1.0])
        with pytest.raises(ValueError):
            heat_trace(Spectrum(eigenvalues=np.zeros(0)), [1.0])


class TestTraceInversion:
    def test_t_at_trace_round_trip(self):
        spec = box_spectrum(unit_box(1, bc="neumann"), cutoff=4.0e4)
        for target in (2.0, 10.0, 40.0):
            t = t_at_trace(spec, target)
            assert trace_value(spec, t) == pytest.approx(target, rel=1e-10)

    @staticmethod
    def _bisection(spectrum, target):
        # the plain bisection in log t that t_at_trace must reproduce
        lo, hi = -60.0, 60.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if trace_value(spectrum, math.exp(mid)) > target:
                lo = mid
            else:
                hi = mid
        return math.exp(0.5 * (lo + hi))

    @pytest.mark.parametrize("name", ["sc31_l3_dirichlet", "sc31_l4_neumann",
                                      "ms31_l2_neumann", "ms31_l3_neumann"])
    def test_t_at_trace_is_the_bisection_bit_for_bit(self, request, name):
        spec = request.getfixturevalue(name)
        floor, n = spec.num_zero_modes, spec.n
        targets = [floor + 1e-12, floor + 1e-9, floor + 0.5, 4.0, 10.0, 0.1 * n,
                   0.25 * n, 0.5 * n, n - 1.0, n - 1e-9, math.nextafter(float(n), 0.0)]
        targets += list(floor + (n - floor) * np.random.default_rng(3).random(8))
        for target in targets:
            assert t_at_trace(spec, target) == self._bisection(spec, target), target

    def test_t_at_trace_with_a_negative_eigenvalue(self):
        # rounding can leave a ground mode just below zero; it counts as the
        # kernel mode it is, so the answer is the bisection on the clipped
        # eigenvalues, where K(t) is non-increasing
        ev = np.array([-2e-15, 0.3, 0.7, 1.0, 2.5])
        spec, clipped = Spectrum(eigenvalues=ev), Spectrum(eigenvalues=np.maximum(ev, 0.0))
        for target in (1.0 + 1e-9, 1.5, 2.0, 3.0, 4.5):
            assert t_at_trace(spec, target) == self._bisection(clipped, target), target
        assert t_at_trace(spec, 1.0 + 1e-9) == pytest.approx(69.0776, rel=1e-6)

    def test_t_at_trace_near_the_floor_of_a_stored_spectrum(self, stored_sc31_l4_neumann):
        # ground mode -1.96e-15: the unclipped K never falls to 1 + 1e-9 and
        # overflows past t = 3.6e17
        spec = stored_sc31_l4_neumann
        assert spec.eigenvalues[0] < 0 and spec.num_zero_modes == 1
        clipped = Spectrum(eigenvalues=np.maximum(spec.eigenvalues, 0.0))
        t = t_at_trace(spec, 1.0 + 1e-9)
        assert t == self._bisection(clipped, 1.0 + 1e-9)
        assert t == pytest.approx(3.2099e4, rel=1e-4)
        assert trace_value(clipped, t) == pytest.approx(1.0 + 1e-9, rel=1e-12)

    def test_t_at_trace_domain(self):
        spec = box_spectrum(unit_box(1, bc="neumann"), cutoff=1000.0)
        with pytest.raises(DomainError):
            t_at_trace(spec, 0.5)  # at/below the zero-mode floor
        with pytest.raises(DomainError):
            t_at_trace(spec, float(spec.n))

    def test_default_windows_nested(self):
        # needs enough modes that the 10%-of-n floor sits above 10 traces
        spec = box_spectrum(unit_box(1), cutoff=4.0e6)
        w = default_windows(spec)
        assert w["fourier"][0] < w["fit"][0] < w["fit"][1] < w["fourier"][1]

    def test_log_grid(self):
        g = log_grid(0.01, 1.0, 101)
        assert g[0] == pytest.approx(0.01) and g[-1] == pytest.approx(1.0)
        steps = np.diff(np.log(g))
        assert np.allclose(steps, steps[0], rtol=1e-10)
        with pytest.raises(DomainError):
            log_grid(1.0, 0.5)


class TestFitSpectralDimension:
    def test_exact_power_law(self):
        grid = log_grid(1e-3, 1.0, 200)
        series = WeylSeries(t=grid, K=3.0 * grid ** (-0.8))
        d_s, stderr = fit_spectral_dimension(series, (1e-3, 1.0))
        assert d_s == pytest.approx(1.6, abs=1e-12)
        assert stderr < 1e-10

    def test_synthetic_weyl_ladder(self):
        # counting law N(lambda) = V lambda^(d_s/2) gives K ~ Gamma(d_s/2+1) V t^(-d_s/2)
        d_s = 2.5
        j = np.arange(1, 20_001, dtype=np.float64)
        spec = Spectrum(eigenvalues=j ** (2.0 / d_s))
        windows = default_windows(spec)
        series = heat_trace(spec, log_grid(*windows["fit"], points=200))
        got, _ = fit_spectral_dimension(series, windows["fit"])
        assert got == pytest.approx(d_s, rel=0.01)

    def test_too_few_points(self):
        grid = log_grid(0.1, 1.0, 50)
        series = WeylSeries(t=grid, K=grid ** (-1.0))
        with pytest.raises(InsufficientDataError):
            fit_spectral_dimension(series, (0.9, 1.0))


class TestEstimatePeriod:
    def test_log_r_formula(self, sc31_spec):
        d_s = 1.75
        expect = (2.0 / d_s) * math.log(8)
        assert estimate_period(sc31_spec, d_s) == pytest.approx(expect, rel=1e-14)

    def test_domain(self, sc31_spec):
        with pytest.raises(DomainError):
            estimate_period(sc31_spec, 0.0)
        with pytest.raises(DomainError):
            estimate_period(sc31_spec, 2.5)


class TestExtractFourier:
    def setup_method(self):
        self.model = planted_model()
        p = self.model.period
        # exactly three whole periods in x = -log t
        self.grid = log_grid(math.exp(-3 * p), 1.0, 3001)
        K = np.array([self.model.evaluate(t).real for t in self.grid])
        self.series = WeylSeries(t=self.grid, K=K)

    def test_recovers_planted_coefficients(self):
        got = extract_fourier(self.series, 1.6, 1.25, p_max=3)
        assert got.coefficient(0, 0).real == pytest.approx(2.0, abs=1e-10)
        c1 = got.coefficient(0, 1)
        want = 0.15 * cmath.exp(0.7j)
        assert abs(c1 - want) < 1e-10
        assert got.coefficient(0, -1) == c1.conjugate()
        assert abs(got.coefficient(0, 2)) < 1e-10
        assert abs(got.coefficient(0, 3)) < 1e-10

    def test_term_count(self):
        got = extract_fourier(self.series, 1.6, 1.25, p_max=2)
        assert len(got.terms) == 5
        assert {t.p for t in got.terms} == {-2, -1, 0, 1, 2}

    def test_exponents_carry_oscillation(self):
        got = extract_fourier(self.series, 1.6, 1.25, p_max=1)
        term = next(t for t in got.terms if t.p == 1)
        assert term.exponent == pytest.approx(complex(0.8, 2 * math.pi / 1.25))

    def test_too_short_window_raises(self):
        with pytest.raises(InsufficientDataError):
            extract_fourier(self.series, 1.6, 2.5)

    def test_bad_period(self):
        with pytest.raises(DomainError):
            extract_fourier(self.series, 1.6, 0.0)


class TestCountingRatio:
    def test_interval_counting_values(self):
        spec = box_spectrum(unit_box(1), cutoff=1.0e4)
        x, w = counting_ratio(spec, 1.0, points=64, s_min=2.0, s_max=80.0)
        assert x[0] == pytest.approx(math.log(2.0))
        assert x[-1] == pytest.approx(math.log(80.0))
        # eigenvalues sit at s = j^2; strictly below s counts floor(sqrt(s)) modes
        for xi, wi in zip(x, w):
            s = math.exp(xi)
            n = len([j for j in range(1, 100) if j * j < s])
            assert wi == pytest.approx(n / math.sqrt(s), rel=1e-12)

    def test_domain(self):
        spec = box_spectrum(unit_box(1), cutoff=1000.0)
        with pytest.raises(DomainError):
            counting_ratio(spec, 1.0, s_min=0.0)
        with pytest.raises(DomainError):
            counting_ratio(spec, 1.0, s_min=5.0, s_max=4.0)


class TestDominantLogPeriod:
    @pytest.mark.parametrize("planted", [1.0, 1.7, 2.4, 3.1])
    def test_planted_oscillation(self, planted):
        x = np.linspace(0.0, 10.0, 2000)
        vals = 1.0 + 0.05 * np.cos(2 * math.pi * x / planted)
        period, amp = dominant_log_period(x, vals)
        # within half a bin of the zero-padded FFT
        assert abs(1.0 / period - 1.0 / planted) <= 0.5 / (OVERSAMPLE * 10.0)
        assert amp == pytest.approx(0.05, rel=0.1)

    def test_pure_power_law_stays_silent(self):
        # a pure power-law counting function has a constant Weyl ratio
        x = np.linspace(0.0, 12.0, 1500)
        for vals in (np.full_like(x, 3.7), 2.0 + 0.01 * x):
            _, amp = dominant_log_period(x, vals)
            assert amp < 1e-6

    def test_descending_input_handled(self):
        x = np.linspace(0.0, 10.0, 1200)
        vals = 1.0 + 0.1 * np.cos(2 * math.pi * x / 1.7)
        p_fwd, _ = dominant_log_period(x, vals)
        p_rev, _ = dominant_log_period(x[::-1], vals[::-1])
        assert p_fwd == pytest.approx(p_rev, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            dominant_log_period(np.arange(4.0), np.arange(4.0))
        x = np.linspace(0.0, 5.0, 100)
        with pytest.raises(DomainError):
            dominant_log_period(x, np.ones(100), period_range=(3.0, 2.0))
        # the band [1/0.805, 1/0.8] falls between two bins
        x = np.linspace(0.0, 1.61, 100)
        with pytest.raises(DomainError):
            dominant_log_period(x, 1.0 + 0.1 * np.cos(2 * math.pi * x / 0.8))


class TestModelSummaries:
    def test_spectral_volume(self):
        m = planted_model(g0=0.5, d_s=2.0)
        assert spectral_volume(m, 3.0) == pytest.approx(
            4.0 * math.pi * 0.5 * 9.0, rel=1e-12
        )
        with pytest.raises(DomainError):
            spectral_volume(m, -1.0)

    def test_g0_extrema(self):
        m = planted_model(g0=1.0, a=0.15, phi=0.7)
        lo, hi = g0_extrema(m)
        assert lo == pytest.approx(0.7, abs=1e-8)
        assert hi == pytest.approx(1.3, abs=1e-8)

    def test_save_load_round_trip(self, tmp_path):
        m = planted_model()
        path = str(tmp_path / "model.json")
        save_model(m, path)
        got = load_model(path)
        assert got.period == m.period
        assert got.d_s == m.d_s
        assert got.d_w is None
        assert got.remainder == m.remainder
        assert len(got.terms) == len(m.terms)
        for a, b in zip(got.terms, m.terms):
            assert (a.k, a.p) == (b.k, b.p)
            assert a.exponent == b.exponent
            assert a.coefficient == b.coefficient


class TestAnalyzeCarpets:
    def test_sc31_level4_summary(self, sc31_l4_analysis, sc31_spec):
        res = sc31_l4_analysis
        assert 1.674 <= res["d_s"] <= 1.893
        assert res["d_s_stderr"] < 0.02
        assert res["period"] == pytest.approx(
            estimate_period(sc31_spec, res["d_s"]), rel=1e-14
        )
        assert res["model"].g00 > 0
        assert set(res["windows"]) == {"fit", "fourier"}
        ratio = res["model"].coefficient(0, 1)
        assert abs(ratio) / res["model"].g00 < 0.2

    def test_ms31_level3_dimension(self, ms31_l3_analysis):
        assert 2.2 < ms31_l3_analysis["d_s"] < 2.7

    def test_counting_domain_period_blind(self, sc31_l4_neumann, sc31_l4_analysis):
        # without the carpet the period must come from the data alone
        blind = analyze(sc31_l4_neumann)
        log_r = sc31_l4_analysis["period"]
        assert abs(blind["period"] - log_r) / log_r < 0.15
        assert blind["model"].d_w is None
