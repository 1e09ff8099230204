"""Spectral zeta: direct sums, meromorphic continuation, pole towers."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from carpetgas.eigensolve import Spectrum, compute_spectrum
from carpetgas.errors import ConvergenceError, DomainError, PoleError
from carpetgas.geometry import preset
from carpetgas.graph import build_graph
from carpetgas.oracle import (
    box_model,
    box_spectrum,
    interval_trace_exact,
    unit_box,
)
from carpetgas.specfun import riemann_zeta
from carpetgas.trace import HeatTraceModel, ModelTerm
from carpetgas.zeta import (
    POLE_TOL,
    TAIL_DECAY,
    PoleProximityWarning,
    ZetaExtension,
    build_extension,
    casimir_energy,
    export_poles_csv,
    zeta_direct,
    zeta_extended,
)


def interval_extension(gamma=0.0, t1=1.0):
    return build_extension(
        box_model(1, bc="dirichlet"),
        gamma,
        lambda t: interval_trace_exact(t),
        t1=t1,
    )


def interval_zeta_exact(s):
    """zeta_Delta(s) = pi^(-2s) zeta_R(2s) for the unit Dirichlet interval."""
    return math.pi ** (-2.0 * complex(s)) * riemann_zeta(2.0 * complex(s))


def residue_near(ext, s0):
    """Sum of the residues of the poles of ``ext`` within POLE_TOL of s0."""
    return sum(p.residue for p in ext.poles if abs(p.location - s0) < POLE_TOL)


@pytest.fixture(scope="module")
def interval_ext():
    return interval_extension()


@pytest.fixture(scope="module")
def interval_spectrum():
    return box_spectrum(unit_box(1), cutoff=4.0e6)


class TestZetaDirect:
    def test_interval_closed_form(self, interval_spectrum):
        for s in (1.5, 2.0, 3.0):
            got = zeta_direct(interval_spectrum, s, d_s=1.0)
            want = interval_zeta_exact(s)
            assert abs(got - want) / abs(want) < 1e-4

    def test_tail_correction_helps(self, interval_spectrum):
        s = 2.0
        want = interval_zeta_exact(s)
        raw = zeta_direct(interval_spectrum, s, d_s=1.0, tail_correct=False)
        corrected = zeta_direct(interval_spectrum, s, d_s=1.0)
        assert abs(corrected - want) < abs(raw - want)

    def test_complex_argument(self, interval_spectrum):
        s = 2.0 + 3.0j
        got = zeta_direct(interval_spectrum, s, d_s=1.0)
        want = interval_zeta_exact(s)
        assert abs(got - want) / abs(want) < 1e-4

    def test_divergent_strip_rejected(self, interval_spectrum):
        with pytest.raises(DomainError):
            zeta_direct(interval_spectrum, 0.4, d_s=1.0)

    def test_gamma_shift(self, interval_spectrum):
        s, g = 2.0, 3.0
        got = zeta_direct(interval_spectrum, s, gamma=g, d_s=1.0)
        brute = sum(
            (lam + g) ** (-s) for lam in interval_spectrum.eigenvalues.tolist()
        )
        # truncation plus first-order tail model
        assert abs(got - brute) / abs(brute) < 1e-3

    def test_pole_proximity_warning(self, interval_spectrum):
        lam1 = float(interval_spectrum.eigenvalues[0])
        with pytest.warns(PoleProximityWarning):
            zeta_direct(interval_spectrum, 2.0, gamma=-lam1, d_s=1.0)


class TestExtensionInterval:
    def test_casimir_point(self, interval_ext):
        got = zeta_extended(interval_ext, -0.5)
        assert abs(got.real - (-math.pi / 12.0)) < 1e-10
        assert abs(got.imag) < 1e-12

    def test_zero_point(self, interval_ext):
        got = zeta_extended(interval_ext, 0.0)
        assert abs(got - (-0.5)) < 1e-10

    def test_matches_riemann_on_critical_line_shifted(self, interval_ext):
        for s in (0.2 + 1.0j, -0.3, 0.75 + 0.5j):
            got = zeta_extended(interval_ext, s)
            want = interval_zeta_exact(s)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_overlap_with_direct_sum(self, interval_ext, interval_spectrum):
        points = np.linspace(0.8, 3.5, 10)
        for s in points:
            ext = zeta_extended(interval_ext, s)
            direct = zeta_direct(interval_spectrum, float(s), d_s=1.0)
            assert abs(ext - direct) / abs(direct) < 1e-4

    def test_trivial_zeros_exact(self, interval_ext):
        for n in range(1, 6):
            v = zeta_extended(interval_ext, -float(n))
            assert abs(v) < 1e-12

    def test_pole_raises_with_residue(self, interval_ext):
        with pytest.raises(PoleError) as err:
            zeta_extended(interval_ext, 0.5)
        assert err.value.location == 0.5
        # unit interval: residue 1/(2 pi) at s = 1/2
        assert abs(err.value.residue - 1.0 / (2.0 * math.pi)) < 1e-14

    def test_conjugation_symmetry(self, interval_ext):
        s = 0.3 + 1.7j
        a = zeta_extended(interval_ext, s)
        b = zeta_extended(interval_ext, s.conjugate())
        assert abs(a - b.conjugate()) < 1e-12 * max(1.0, abs(a))

    def test_t1_invariance(self):
        early = interval_extension(t1=0.6)
        late = interval_extension(t1=1.7)
        for s in (-0.5, 0.3 + 1.0j, 2.0):
            a = zeta_extended(early, s)
            b = zeta_extended(late, s)
            assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    def test_error_bound_tracked(self, interval_ext):
        zeta_extended(interval_ext, -0.5)
        assert 0.0 <= interval_ext.last_error < 1e-9


class TestResidues:
    def test_residue_matches_numeric_limit(self, interval_ext):
        s0 = 0.5
        eps1, eps2 = 1e-5, 2e-5
        f1 = eps1 * zeta_extended(interval_ext, s0 + eps1)
        f2 = eps2 * zeta_extended(interval_ext, s0 + eps2)
        richardson = 2.0 * f1 - f2
        assert abs(richardson - residue_near(interval_ext, s0)) < 1e-6

    def test_collided_tower_sums_residues(self):
        # d=3 box: the gamma-shifted volume tower lands on the codim-2 pole
        gamma = 0.5
        ext = build_extension(box_model(3, bc="dirichlet"), gamma, None,
                              allow_truncated_tail=True)
        s0 = 0.5
        contributors = [p for p in ext.poles if abs(p.location - s0) < 1e-9
                        and abs(p.residue) > 0]
        assert len(contributors) >= 2
        eps1, eps2 = 1e-5, 2e-5
        f1 = eps1 * zeta_extended(ext, s0 + eps1)
        f2 = eps2 * zeta_extended(ext, s0 + eps2)
        richardson = 2.0 * f1 - f2
        residue = residue_near(ext, s0)
        assert abs(richardson - residue) < 1e-6 * max(1.0, abs(residue))

    def test_residues_linear_in_coefficients(self):
        model = box_model(1, bc="dirichlet")
        doubled = HeatTraceModel(
            terms=[ModelTerm(t.k, t.p, t.exponent, 2.0 * t.coefficient)
                   for t in model.terms],
            period=model.period,
            d_s=model.d_s,
        )
        base = build_extension(model, 0.25, None, allow_truncated_tail=True)
        scaled = build_extension(doubled, 0.25, None, allow_truncated_tail=True)
        assert len(base.poles) == len(scaled.poles)
        for a, b in zip(base.poles, scaled.poles):
            assert b.location == a.location
            # doubling a coefficient is exact in floating point
            assert b.residue == 2.0 * a.residue

    def test_pole_locations_step_down_by_integers(self, interval_ext):
        locs = {p.location for p in interval_ext.poles if p.k == 0}
        for n in range(5):
            assert complex(0.5 - n) in locs


class TestTailRoutes:
    def test_spectrum_tail_matches_exact_trace(self, interval_ext,
                                               interval_spectrum):
        # t1 small enough that the short-time law holds below it
        ext_s = build_extension(box_model(1, bc="dirichlet"), 0.0,
                                interval_spectrum, t1=0.04)
        for s in (-0.5, 0.25 + 1.0j, 2.0):
            a = zeta_extended(ext_s, s)
            b = zeta_extended(interval_ext, s)
            assert abs(a - b) < 1e-8 * max(1.0, abs(b))

    @pytest.mark.parametrize("bc,gamma", [("neumann", 1.0), ("dirichlet", 0.0)])
    def test_spectrum_tail_matches_incomplete_gamma_sum(self, request, bc, gamma):
        # int_t1^oo t^(s-1) e^(-gamma t) K(t) dt, mode by mode in closed form
        # by mpmath's upper incomplete gamma; the model (a lone Weyl term, no
        # pole at any s below) does not enter it
        spectrum = request.getfixturevalue(f"sc31_l3_{bc}")
        t1 = 1.0
        model = HeatTraceModel(terms=[ModelTerm(0, 0, complex(0.93), complex(0.1))],
                               period=1.0, d_s=1.86)
        ext = build_extension(model, gamma, spectrum, t1=t1)
        mu = spectrum.eigenvalues + gamma
        for s in (-2.3, -0.5, 0.3, 0.25 + 1.0j, 2.0):
            terms = [complex(m) ** (-s) * complex(mpmath.gammainc(s, m * t1))
                     for m in mu]
            want = complex(math.fsum(v.real for v in terms),
                           math.fsum(v.imag for v in terms))
            got, _ = ext._integral(ext._i3, s)
            assert abs(got - want) <= 1e-12 * abs(want)
            zeta_extended(ext, s)
            assert math.isfinite(ext.last_error) and ext.last_error < 1e-9

    def test_truncated_spectrum_warns(self):
        # lambda_max = pi^2; the warning prints (lambda_max + gamma) * t1
        short = box_spectrum(unit_box(1), cutoff=30.0)
        assert short.lambda_max == pytest.approx(math.pi ** 2)
        with pytest.warns(UserWarning, match=r"\(lambda_max \+ gamma\) \* t1 = "
                          r"1\.19 < 35\); a truncated mode list needs a larger t1"):
            build_extension(box_model(1, bc="dirichlet"), 2.0, short, t1=0.1)

    def test_complete_spectrum_does_not_warn(self):
        # (lambda_max + gamma) * t1 < TAIL_DECAY, but a complete mode list
        # is the whole trace
        full = compute_spectrum(build_graph(preset("SC(3,1)"), 2), bc="neumann")
        assert full.complete and (full.lambda_max + 1.0) * 1.0 < TAIL_DECAY
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_extension(box_model(2, bc="neumann"), 1.0, full, t1=1.0)

    def test_zero_modes_need_gamma(self):
        neu = box_spectrum(unit_box(1, bc="neumann"), cutoff=4.0e4)
        with pytest.raises(DomainError):
            build_extension(box_model(1, bc="neumann"), 0.0, neu)

    def test_constant_trace_rejected(self):
        with pytest.raises(DomainError):
            build_extension(box_model(1, bc="neumann"), 0.0,
                            lambda t: interval_trace_exact(t, bc="neumann"))

    def test_missing_tail_needs_opt_in(self):
        with pytest.raises(DomainError):
            build_extension(box_model(1, bc="dirichlet"), 0.0, None)

    def test_callable_tail_called_one_t_at_a_time(self):
        def scalar_trace(t):
            assert np.ndim(t) == 0
            return interval_trace_exact(t)

        ext = build_extension(box_model(1, bc="dirichlet"), 0.0, scalar_trace)
        ref = interval_extension()
        for s in (-0.5, 0.25 + 1.0j):
            assert zeta_extended(ext, s) == zeta_extended(ref, s)

    def test_bad_tail_type(self):
        with pytest.raises(DomainError):
            build_extension(box_model(1, bc="dirichlet"), 0.0, tail=42)

    def test_bad_t1(self):
        with pytest.raises(DomainError):
            interval_extension(t1=-1.0)


class TestCasimir:
    def test_interval_constant(self, interval_ext):
        assert casimir_energy(interval_ext) == pytest.approx(
            -math.pi / 24.0, abs=1e-10
        )

    def test_scaling_with_length(self):
        # doubling the interval halves the Casimir energy
        model = HeatTraceModel(
            terms=[
                ModelTerm(0, 0, complex(0.5), complex(2.0 / math.sqrt(4.0 * math.pi))),
                ModelTerm(1, 0, complex(0.0), complex(-0.5)),
            ],
            period=1.0,
            d_s=1.0,
        )
        ext = build_extension(model, 0.0, lambda t: interval_trace_exact(t / 4.0),
                              t1=1.0)
        assert casimir_energy(ext) == pytest.approx(-math.pi / 48.0, abs=1e-8)

    def test_finite_spectrum_half_sum(self):
        spec = Spectrum(eigenvalues=np.array([1.0, 4.0, 9.0]))
        assert casimir_energy(spec) == pytest.approx(0.5 * (1 + 2 + 3), rel=1e-14)

    def test_empty_spectrum(self):
        assert casimir_energy(Spectrum(eigenvalues=np.zeros(0))) == 0.0

    def test_negative_ground_mode_counts_as_zero(self, stored_sc31_l4_neumann):
        # the stored reference's ground mode is rounded to -1.96e-15
        ev = stored_sc31_l4_neumann.eigenvalues
        assert ev[0] < 0
        got = casimir_energy(stored_sc31_l4_neumann)
        assert math.isfinite(got)
        assert got == pytest.approx(
            0.5 * math.fsum(math.sqrt(max(v, 0.0)) for v in ev.tolist()), rel=1e-14)

    def test_gamma_shift_rejected(self):
        ext = build_extension(box_model(1, bc="dirichlet"), 1.0, None,
                              allow_truncated_tail=True)
        with pytest.raises(DomainError):
            casimir_energy(ext)


class TestExport:
    def test_poles_csv(self, interval_ext, tmp_path):
        path = tmp_path / "poles.csv"
        export_poles_csv(interval_ext, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,p,n,re_location,im_location,re_residue,im_residue"
        assert len(lines) == len(interval_ext.poles) + 1
        first = lines[1].split(",")
        assert len(first) == 7
        int(first[0]), int(first[1]), int(first[2])
        float(first[3]), float(first[5])
