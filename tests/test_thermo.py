"""Bose gas observables: densities, condensation, radiation, Casimir forces."""

import cmath
import math
import warnings

import numpy as np
import pytest

from carpetgas import eigensolve, geometry, thermo
from carpetgas.eigensolve import Spectrum
from carpetgas.errors import DIVERGED, DomainError
from carpetgas.graph import build_graph
from carpetgas.oracle import (
    box_model,
    box_spectrum,
    box_trace_exact,
    cube_photon_energy_density,
    euclid_bec_critical,
    sum_of_three_squares_counts,
    unit_box,
)
from carpetgas.specfun import riemann_zeta
from carpetgas.thermo import (
    FUGACITY_TOL,
    BECReport,
    GasState,
    bec_diagnose,
    blackbody,
    blackbody_spectrum,
    casimir_waveguide_thermal,
    casimir_waveguide_zero_T,
    condensate_density,
    critical_densities,
    density_series,
    free_energy_density,
    massive_log_partition,
    max_fugacity,
    particle_density,
    solve_fugacity,
    tail_density,
    waveguide_trace,
)
from carpetgas.trace import HeatTraceModel, ModelTerm, flat_model, spectral_volume


def rippled_model(d_s, amp, phi=0.0, period=1.0):
    g0 = (4.0 * math.pi) ** (-d_s / 2.0)
    w = 2.0 * math.pi / period
    return HeatTraceModel(
        terms=[
            ModelTerm(0, 0, complex(d_s / 2.0), complex(g0)),
            ModelTerm(0, 1, complex(d_s / 2.0, w), g0 * amp * cmath.exp(1j * phi)),
            ModelTerm(0, -1, complex(d_s / 2.0, -w), g0 * amp * cmath.exp(-1j * phi)),
        ],
        period=period,
        d_s=float(d_s),
    )


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


class TestGasState:
    def test_validation(self):
        with pytest.raises(DomainError):
            GasState(beta=0.0, z=0.5)
        with pytest.raises(DomainError):
            GasState(beta=1.0, z=-0.1)
        with pytest.raises(DomainError):
            GasState(beta=1.0, z=0.5, L=0.0)

    def test_chemical_potential(self):
        st = GasState(beta=2.0, z=math.exp(-3.0))
        assert st.mu == pytest.approx(-1.5, rel=1e-14)

    def test_max_fugacity(self):
        spec = Spectrum(eigenvalues=np.array([0.5, 1.0]))
        st = GasState(beta=2.0, z=0.1)
        assert max_fugacity(spec, st) == pytest.approx(math.e, rel=1e-14)


class TestLogPartition:
    def test_single_mode(self):
        spec = Spectrum(eigenvalues=np.array([1.0]))
        st = GasState(beta=1.0, z=math.exp(-1.0))
        assert massive_log_partition(st, spec) == pytest.approx(
            -math.log(1.0 - math.exp(-2.0)), rel=1e-14
        )

    def test_empty_gas_limit(self):
        spec = box_spectrum(unit_box(1), cutoff=1000.0)
        st = GasState(beta=1.0, z=1e-14)
        assert abs(massive_log_partition(st, spec)) < 1e-12

    def test_spectrum_matches_brute_loop(self):
        spec = box_spectrum(unit_box(1), cutoff=4.0e3)
        st = GasState(beta=0.05, z=0.8, L=1.0)
        brute = -math.fsum(
            math.log(1.0 - 0.8 * math.exp(-0.05 * lam))
            for lam in spec.eigenvalues.tolist()
        )
        assert massive_log_partition(st, spec) == pytest.approx(brute, rel=1e-13)

    def test_fugacity_cap_enforced(self):
        spec = box_spectrum(unit_box(1, bc="neumann"), cutoff=1000.0)
        with pytest.raises(DomainError):
            massive_log_partition(GasState(beta=1.0, z=1.5), spec)

    def test_cube_volume_term_overestimates_at_saturation(self):
        # volume-only asymptotic vs the exact Dirichlet box sum at L/sqrt(beta)=30;
        # the dropped boundary towers leave a certified ~25 percent excess at z=1
        beta, L = 1.0, 30.0
        spec = box_spectrum(unit_box(3), cutoff=40.0 * L * L)
        st = GasState(beta=beta, z=1.0, L=L)
        exact = massive_log_partition(st, spec)
        vol = quiet(massive_log_partition, st, flat_model(3.0))
        assert 0.20 < (vol - exact) / exact < 0.30

    def test_cube_full_model_matches_below_saturation(self):
        beta, L = 1.0, 30.0
        spec = box_spectrum(unit_box(3), cutoff=40.0 * L * L)
        st = GasState(beta=beta, z=0.9, L=L)
        exact = massive_log_partition(st, spec)
        model = quiet(massive_log_partition, st, box_model(3, bc="dirichlet"))
        assert abs(model - exact) / exact < 1e-9

    def test_boundary_tower_diverges_at_saturation(self):
        st = GasState(beta=1.0, z=1.0, L=30.0)
        out = quiet(massive_log_partition, st, box_model(3, bc="dirichlet"))
        assert out is DIVERGED

    def test_asymptotic_window_warning(self):
        st = GasState(beta=1.0, z=0.5, L=3.0)
        with pytest.warns(UserWarning, match="asymptotic window"):
            massive_log_partition(st, flat_model(3.0))


class TestParticleDensity:
    def test_spectrum_matches_brute_loop(self):
        spec = box_spectrum(unit_box(1), cutoff=4.0e3)
        st = GasState(beta=0.05, z=0.6)
        brute = math.fsum(
            1.0 / (math.exp(0.05 * lam) / 0.6 - 1.0)
            for lam in spec.eigenvalues.tolist()
        )
        assert particle_density(st, spec, v_s=2.0) == pytest.approx(
            brute / 2.0, rel=1e-13
        )

    def test_spectrum_path_needs_volume(self):
        spec = box_spectrum(unit_box(1), cutoff=1000.0)
        with pytest.raises(DomainError):
            particle_density(GasState(beta=1.0, z=0.5), spec)

    def test_saturated_3d_is_classical_critical(self):
        beta = 0.7
        got = quiet(particle_density, GasState(beta=beta, z=1.0), flat_model(3.0))
        assert got == pytest.approx(euclid_bec_critical(3, beta), rel=1e-12)

    def test_half_filling_matches_series(self):
        beta = 0.01
        st = GasState(beta=beta, z=0.5)
        got = quiet(particle_density, st, flat_model(3.0))
        series = quiet(density_series, st, flat_model(3.0))
        assert got == pytest.approx(series, rel=1e-12)

    def test_low_dimension_saturation_diverges(self):
        out = particle_density(GasState(beta=1.0, z=1.0), flat_model(1.8))
        assert out is DIVERGED
        assert not out

    def test_rippled_model_against_series(self):
        model = rippled_model(2.5, amp=0.02, phi=0.4)
        st = GasState(beta=1.0, z=0.7, L=30.0)
        a = quiet(particle_density, st, model)
        b = quiet(density_series, st, model)
        assert a == pytest.approx(b, rel=1e-10)

    def test_dual_route_interval(self):
        # volume-tower asymptotic vs exact sum; boundary effects are O(lambda_T/L)
        L = 3000.0
        spec = box_spectrum(unit_box(1), cutoff=40.0 * L * L)
        st = GasState(beta=1.0, z=0.7, L=L)
        exact = particle_density(st, spec, v_s=L)
        model = quiet(particle_density, st, flat_model(1.0))
        assert abs(model - exact) / exact < 2e-3

    def test_series_needs_subcritical_z(self):
        with pytest.raises(DomainError):
            density_series(GasState(beta=1.0, z=1.0), flat_model(3.0))


class TestCriticalDensities:
    def test_flat_3d_collapses_to_classical(self):
        beta = 0.7
        up, lo = critical_densities(flat_model(3.0), beta)
        want = euclid_bec_critical(3, beta)
        assert up == pytest.approx(want, rel=1e-12)
        assert lo == pytest.approx(want, rel=1e-12)

    def test_five_percent_ripple_ratio(self):
        up, lo = critical_densities(rippled_model(3.0, amp=0.025), 1.0)
        assert up / lo == pytest.approx(1.05 / 0.95, rel=1e-6)

    def test_diverged_at_low_dimension(self):
        up, lo = critical_densities(flat_model(2.0), 1.0)
        assert up is DIVERGED and lo is DIVERGED

    def test_domain(self):
        with pytest.raises(DomainError):
            critical_densities(flat_model(3.0), 0.0)


class TestFugacity:
    def test_spectrum_round_trip(self):
        spec = box_spectrum(unit_box(1), cutoff=4.0e3)
        st = GasState(beta=0.05, z=0.5)
        target = particle_density(st, spec, v_s=1.0)
        got = solve_fugacity(target, 0.05, 1.0, spec, v_s=1.0)
        assert got == pytest.approx(0.5, rel=1e-10)

    def test_model_route_inverts_polylog(self):
        # Li_{3/2}(z) = zeta(3/2)/2 has the root below (60-digit reference)
        beta = 1.0
        rho_c = quiet(particle_density, GasState(beta=beta, z=1.0), flat_model(3.0))
        z = quiet(solve_fugacity, 0.5 * rho_c, beta, 1.0, flat_model(3.0))
        assert z == pytest.approx(0.81588343459412559, rel=1e-9)

    @pytest.mark.parametrize("z", [1e-6, 0.3, 0.9, 0.99])
    @pytest.mark.parametrize("law", ["flat-d3", "ms31-l3"])
    def test_model_route_round_trip(self, request, law, z):
        # the Newton slope is the volume tower at polylog order -1
        model = flat_model(3.0) if law == "flat-d3" \
            else request.getfixturevalue("ms31_l3_analysis")["model"]
        beta = 0.01   # L^2 / beta = 100, inside the asymptotic window
        target = particle_density(GasState(beta=beta, z=z), model)
        got = solve_fugacity(target, beta, 1.0, model)
        assert got == pytest.approx(z, rel=2 * FUGACITY_TOL, abs=0.0)

    def test_model_route_rejects_supercritical_target(self):
        rho_c = quiet(particle_density, GasState(beta=1.0, z=1.0), flat_model(3.0))
        with pytest.raises(DomainError):
            quiet(solve_fugacity, 2.0 * rho_c, 1.0, 1.0, flat_model(3.0))

    def test_spectrum_absorbs_excess_into_condensate(self):
        spec = box_spectrum(unit_box(1), cutoff=4.0e3)
        beta, target = 0.05, 1000.0
        z = solve_fugacity(target, beta, 1.0, spec, v_s=1.0)
        st = GasState(beta=beta, z=z)
        assert z < max_fugacity(spec, st)
        rho0 = condensate_density(st, spec, 1.0)
        rho_plus = tail_density(st, spec, 1.0, 0)
        assert rho0 + rho_plus == pytest.approx(target, rel=1e-6)
        assert rho0 / target > 0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_fugacity(-1.0, 1.0, 1.0, flat_model(3.0))

    @staticmethod
    def assert_solved_inside_cap(spec, beta, target):
        z = solve_fugacity(target, beta, 1.0, spec, v_s=1.0)
        st = GasState(beta=beta, z=z)
        assert z < max_fugacity(spec, st)
        assert particle_density(st, spec, v_s=1.0) == pytest.approx(target, rel=1e-9)
        assert math.isfinite(condensate_density(st, spec, 1.0))

    def test_positive_ground_mode_near_cap(self):
        # one ulp below e^2 the rounded Boltzmann weight of the ground mode is 1
        self.assert_solved_inside_cap(Spectrum(eigenvalues=np.array([2.0, 3.0])), 1.0, 5.0)

    def test_negative_rounding_zero_mode(self):
        spec = Spectrum(eigenvalues=np.array([-3e-15, 0.5, 1.0, 2.0]))
        self.assert_solved_inside_cap(spec, 1.0, 50.0)

    def test_stored_sc31_l4_spectrum(self, stored_sc31_l4_neumann):
        # the stored zero mode is rounding noise (-2e-15), not an exact 0;
        # clipped at 0 it caps the fugacity at exactly 1, as a computed
        # spectrum's snapped kernel does
        assert stored_sc31_l4_neumann.eigenvalues[0] < 0.0
        assert max_fugacity(stored_sc31_l4_neumann, GasState(beta=1.0, z=0.5)) == 1.0
        beta = 0.3
        target = particle_density(GasState(beta=beta, z=0.5), stored_sc31_l4_neumann, v_s=1.0)
        self.assert_solved_inside_cap(stored_sc31_l4_neumann, beta, target)

    def test_stored_ms31_l3_spectrum(self, stored_ms31_l3_neumann):
        # the stored zero mode is rounding noise above zero (+1.78e-14); read
        # as the kernel mode it caps the fugacity at exactly 1
        assert stored_ms31_l3_neumann.eigenvalues[0] > 0.0
        for beta in (0.3, 1.0):
            assert max_fugacity(stored_ms31_l3_neumann, GasState(beta=beta, z=0.5)) == 1.0
        target = particle_density(GasState(beta=1.0, z=0.5), stored_ms31_l3_neumann, v_s=1.0)
        self.assert_solved_inside_cap(stored_ms31_l3_neumann, 1.0, target)

    @pytest.mark.parametrize("z", [1e-8, 1e-250])
    def test_small_fugacity_round_trip(self, sc31_l4_neumann, z):
        # far below the cap the stop is relative to z, not to the cap distance
        target = particle_density(GasState(beta=0.3, z=z), sc31_l4_neumann, v_s=1.0)
        got = solve_fugacity(target, 0.3, 1.0, sc31_l4_neumann, v_s=1.0)
        assert got == pytest.approx(z, rel=2 * FUGACITY_TOL, abs=0.0)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0])
    def test_round_trip_in_few_density_passes(self, ms31_l3_neumann, monkeypatch,
                                              beta):
        # Newton steps on log rho: a bisection spends about 45-60 passes here
        passes = []
        one_pass = thermo._density_pass

        def counted(*args):
            passes.append(args[1])
            return one_pass(*args)

        monkeypatch.setattr(thermo, "_density_pass", counted)
        for z in (1e-200, 0.05, 0.3, 0.9, 0.999):
            target = particle_density(GasState(beta=beta, z=z), ms31_l3_neumann, v_s=1.0)
            passes.clear()
            got = solve_fugacity(target, beta, 1.0, ms31_l3_neumann, v_s=1.0)
            assert got == pytest.approx(z, rel=2 * FUGACITY_TOL, abs=0.0)
            assert len(passes) <= 20, (z, len(passes))

    @pytest.fixture
    def passes(self, monkeypatch):
        """The fugacity of each density pass a solve makes."""
        seen = []
        one_pass = thermo._density_pass

        def counted(*args):
            seen.append(args[1])
            return one_pass(*args)

        monkeypatch.setattr(thermo, "_density_pass", counted)
        return seen

    @staticmethod
    def round_trip(spectrum, beta, z, passes):
        target = particle_density(GasState(beta=beta, z=z), spectrum, v_s=1.0)
        passes.clear()
        got = solve_fugacity(target, beta, 1.0, spectrum, v_s=1.0)
        assert got == pytest.approx(z, rel=2 * FUGACITY_TOL, abs=0.0)
        return len(passes)

    def test_near_cap_steps_in_the_log_distance_to_the_cap(self, ms31_l3_neumann, passes):
        # the ground mode makes log rho ~ -log(-log z): a Newton step on log rho
        # from below overshoots the cap, and bisecting towards it spent 9 of 18
        # passes here
        assert self.round_trip(ms31_l3_neumann, 1.0, 0.999, passes) <= 12

    @pytest.mark.parametrize("z", [1.0 - 1e-6, 1.0 - 1e-9])
    def test_stops_at_adjacent_float_fugacities(self, ms31_l3_neumann, sc31_l4_neumann,
                                                passes, z):
        # tol times the cap distance is below one ulp of z here, so only the
        # adjacent-float stop ends the solve short of the 200-pass cap
        for spectrum in (ms31_l3_neumann, sc31_l4_neumann):
            assert self.round_trip(spectrum, 1.0, z, passes) <= 25

    def test_overflowing_slope_takes_no_newton_step(self):
        # a ground energy of 1e-200 lets n_0 reach 1e200, whose square
        # overflows the slope; the solve bisects there and raises no
        # RuntimeWarning.  The scale sits in beta: an eigenvalue of 1e-200
        # would read as a kernel mode.
        spec = Spectrum(eigenvalues=np.array([1.0, 5e199, 1e200, 2e200]))
        with pytest.warns(UserWarning, match="misses the target"):
            z = solve_fugacity(1e190, 1e-200, 1.0, spec, v_s=1.0)
        assert z < max_fugacity(spec, GasState(beta=1e-200, z=z))

    def test_unresolvable_target_near_cap_warns(self, sc31_l4_neumann):
        # n_0 ~ 1e12 needs u_0 to 1e-24; a float z near 1 resolves 1e-16
        with pytest.warns(UserWarning, match="misses the target"):
            z = solve_fugacity(1e12, 0.3, 1.0, sc31_l4_neumann, v_s=1.0)
        st = GasState(beta=0.3, z=z)
        assert z < max_fugacity(sc31_l4_neumann, st)
        assert particle_density(st, sc31_l4_neumann, v_s=1.0) == pytest.approx(1e12, rel=1e-3)


class TestTailAndCondensate:
    def test_tail_matches_brute_loop(self):
        spec = box_spectrum(unit_box(1), cutoff=4.0e3)
        st = GasState(beta=0.05, z=0.8)
        m = 3
        brute = math.fsum(
            1.0 / (math.exp(0.05 * lam) / 0.8 - 1.0)
            for lam in spec.eigenvalues[m + 1:].tolist()
        )
        assert tail_density(st, spec, 2.0, m) == pytest.approx(brute / 2.0, rel=1e-13)

    def test_tail_cap_relaxes_beyond_ground_mode(self):
        spec = box_spectrum(unit_box(1), cutoff=4.0e3)
        beta = 0.05
        z = math.exp(beta * float(spec.eigenvalues[2]))  # above the full cap
        st = GasState(beta=beta, z=z)
        with pytest.raises(DomainError):
            particle_density(st, spec, v_s=1.0)
        assert tail_density(st, spec, 1.0, 3) > 0.0

    def test_tail_divergence_guard(self):
        spec = box_spectrum(unit_box(1), cutoff=4.0e3)
        beta = 0.05
        z = 1.01 * math.exp(beta * float(spec.eigenvalues[4]))
        with pytest.raises(DomainError):
            tail_density(GasState(beta=beta, z=z), spec, 1.0, 3)

    def test_tail_index_range(self):
        spec = box_spectrum(unit_box(1), cutoff=4.0e3)
        st = GasState(beta=0.05, z=0.5)
        with pytest.raises(DomainError):
            tail_density(st, spec, 1.0, spec.n)

    def test_condensate_small_z(self):
        spec = Spectrum(eigenvalues=np.array([2.0, 5.0]))
        st = GasState(beta=1.0, z=0.01)
        got = condensate_density(st, spec, 1.0)
        w = 0.01 * math.exp(-2.0)
        assert got == pytest.approx(w / (1.0 - w), rel=1e-14)

    def test_condensate_diverges_at_cap(self):
        spec = Spectrum(eigenvalues=np.array([2.0, 5.0]))
        st = GasState(beta=1.0, z=1.1 * math.exp(2.0))
        assert condensate_density(st, spec, 1.0) is DIVERGED


class TestOccupationInequalities:
    """Difference-quotient bounds tying density to fugacity (10 seeded draws)."""

    def test_full_density_bounds(self, sc31_l3_dirichlet):
        spec = sc31_l3_dirichlet
        e0 = float(spec.eigenvalues[0])
        rng = np.random.default_rng(2024)
        for _ in range(10):
            beta = rng.uniform(0.5, 2.0)
            cap = math.exp(beta * e0)
            z1, z2 = np.sort(rng.uniform(0.05, 0.95, size=2) * cap)[::-1]
            if z1 == z2:
                continue
            r1 = particle_density(GasState(beta=beta, z=z1), spec, v_s=1.0)
            r2 = particle_density(GasState(beta=beta, z=z2), spec, v_s=1.0)
            quot = (r1 - r2) / (z1 - z2)
            lower = r2 / z2
            upper = r1 / (z1 * (1.0 - z1 * math.exp(-beta * e0)))
            slack = 1e-10 * max(abs(lower), abs(quot), abs(upper))
            assert lower <= quot + slack
            assert quot <= upper + slack

    def test_tail_density_bounds(self, sc31_l3_dirichlet):
        spec = sc31_l3_dirichlet
        m = 5
        em = float(spec.eigenvalues[m])
        rng = np.random.default_rng(77)
        for _ in range(10):
            beta = rng.uniform(0.5, 2.0)
            cap = math.exp(beta * em)
            z1, z2 = np.sort(rng.uniform(0.05, 0.95, size=2) * cap)[::-1]
            if z1 == z2:
                continue
            r1 = tail_density(GasState(beta=beta, z=z1), spec, 1.0, m)
            r2 = tail_density(GasState(beta=beta, z=z2), spec, 1.0, m)
            quot = (r1 - r2) / (z1 - z2)
            lower = r2 / z2
            upper = r1 / (z1 * (1.0 - z1 * math.exp(-beta * em)))
            slack = 1e-10 * max(abs(lower), abs(quot), abs(upper))
            assert lower <= quot + slack
            assert quot <= upper + slack


class TestFreeEnergy:
    def test_spectrum_path_identity(self):
        spec = box_spectrum(unit_box(1), cutoff=4.0e3)
        st = GasState(beta=0.05, z=0.8)
        f = free_energy_density(st, spec, v_s=3.0)
        logxi = massive_log_partition(st, spec)
        assert f == pytest.approx(-logxi / (0.05 * 3.0), rel=1e-14)

    def test_saturated_3d_constant(self):
        beta = 0.9
        got = quiet(free_energy_density, GasState(beta=beta, z=1.0), flat_model(3.0))
        want = -riemann_zeta(complex(2.5)).real / (
            (4.0 * math.pi) ** 1.5 * beta**2.5
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_vanishes_with_fugacity(self):
        got = quiet(free_energy_density, GasState(beta=1.0, z=1e-12),
                    flat_model(3.0))
        assert abs(got) < 1e-10

    @pytest.mark.parametrize("model", [
        flat_model(2.5), flat_model(3.0),
        rippled_model(2.4, 0.05, phi=0.3),
        rippled_model(3.0, 0.1, phi=1.0, period=1.3),
    ], ids=["flat2.5", "flat3", "rippled2.4", "rippled3"])
    @pytest.mark.parametrize("z", [0.3, 0.9, 1.0])
    def test_model_path_identity(self, model, z):
        # volume-only models: f = -log Xi / (beta V_s) on the model path too
        beta, L = 0.002, 3.0
        st = GasState(beta=beta, z=z, L=L)
        f = free_energy_density(st, model)
        logxi = massive_log_partition(st, model)
        assert f == pytest.approx(
            -logxi / (beta * spectral_volume(model, L)), rel=1e-13)


class TestWindowWarnings:
    @pytest.mark.parametrize("call", [
        lambda: massive_log_partition(GasState(beta=0.5, z=0.5), flat_model(3.0)),
        lambda: particle_density(GasState(beta=0.5, z=0.5), flat_model(3.0)),
        lambda: free_energy_density(GasState(beta=0.5, z=0.5), flat_model(3.0)),
        lambda: blackbody(flat_model(3.0), 0.5),
        lambda: casimir_waveguide_zero_T(flat_model(2.0), 5.0, 1.0),
        lambda: casimir_waveguide_thermal(flat_model(2.0), 3.0, 1.0, 0.5),
    ], ids=["log_partition", "density", "free_energy", "blackbody",
            "casimir_zero_T", "casimir_thermal"])
    def test_warning_points_at_caller(self, call):
        with pytest.warns(UserWarning, match="asymptotic window") as record:
            call()
        assert [w.filename for w in record] == [__file__]


class TestLevelTrends:
    def test_sc31_density_grows_ms31_density_converges(
        self, sc31_l2_neumann, sc31_l3_neumann, sc31_l4_neumann,
        ms31_l2_neumann, ms31_l3_neumann,
    ):
        # saturated excited-mode density per cell: diverging level sequence
        # below two spectral dimensions, convergent above
        def rho(spec):
            return tail_density(GasState(beta=1.0, z=1.0), spec, float(spec.n), 0)

        sc = [rho(s) for s in (sc31_l2_neumann, sc31_l3_neumann, sc31_l4_neumann)]
        assert sc[1] / sc[0] > 1.3
        assert sc[2] / sc[1] > 1.3
        ms = [rho(s) for s in (ms31_l2_neumann, ms31_l3_neumann)]
        assert abs(ms[1] / ms[0] - 1.0) < 0.1

    def test_ms31_condensate_saturates_excess(self, ms31_spec, ms31_l3_neumann,
                                              ms31_l3_analysis):
        model = ms31_l3_analysis["model"]
        beta = 1.0
        rho_c = quiet(particle_density, GasState(beta=beta, z=1.0), model)
        up, _ = critical_densities(model, beta)
        rho_tot = 2.0 * up
        vs3 = spectral_volume(model, 1.0)
        spectra = {
            1: eigensolve.compute_spectrum(build_graph(ms31_spec, 1)),
            2: eigensolve.compute_spectrum(build_graph(ms31_spec, 2)),
            3: ms31_l3_neumann,
        }
        f_limit = quiet(free_energy_density, GasState(beta=beta, z=1.0), model)
        gaps, f_gaps = [], []
        for level in (1, 2, 3):
            v_s = vs3 * ms31_spec.m ** (level - 3)
            z = solve_fugacity(rho_tot, beta, 1.0, spectra[level], v_s=v_s)
            st = GasState(beta=beta, z=z)
            rho0 = condensate_density(st, spectra[level], v_s)
            gaps.append(abs(rho0 + rho_c - rho_tot))
            f_gaps.append(abs(free_energy_density(st, spectra[level], v_s) - f_limit))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.15 * rho_tot
        assert f_gaps[0] > f_gaps[1] > f_gaps[2]
        assert f_gaps[2] < 0.01


class TestBECDiagnose:
    def test_verdicts_across_sponge_family(self):
        cases = {"MS(3,1)": "yes", "MS(5,3)": "inconclusive", "MS(6,4)": "no"}
        for name, want in cases.items():
            report = bec_diagnose(geometry.preset(name))
            assert report.verdict == want, name
            if want == "yes":
                assert report.transient is True
                assert report.d_s_lower > 2.0
            elif want == "no":
                assert report.transient is False
                assert report.d_s_upper < 2.0
            else:
                assert report.transient is None
                assert report.d_s_lower <= 2.0 <= report.d_s_upper

    def test_sc31_is_recurrent(self):
        report = bec_diagnose(geometry.preset("SC(3,1)"))
        assert report.verdict == "no"
        assert report.d_s_fitted is None

    def test_fitted_value_attached(self, sc31_spec, sc31_l4_analysis):
        report = bec_diagnose(sc31_spec, fitted=sc31_l4_analysis["model"])
        assert report.d_s_fitted == sc31_l4_analysis["model"].d_s
        assert isinstance(report, BECReport)


class TestBlackbody:
    def test_flat_3d_stefan_boltzmann(self):
        beta = 0.05
        energy, pressure = blackbody(flat_model(3.0), beta, L=1.0)
        assert energy == pytest.approx(math.pi**2 / (30.0 * beta**4), rel=1e-12)
        assert pressure == pytest.approx(energy / 3.0, rel=1e-14)

    def test_flat_1d_law(self):
        beta = 0.02
        energy, _ = blackbody(flat_model(1.0), beta, L=1.0)
        assert energy == pytest.approx(math.pi / (6.0 * beta**2), rel=1e-12)

    def test_full_cube_model_matches_photon_sum(self):
        beta = 0.02
        energy, _ = blackbody(box_model(3, bc="dirichlet"), beta, L=1.0)
        oracle = cube_photon_energy_density(1.0, beta)
        assert abs(energy - oracle) / oracle < 1e-4

    def test_short_domain_warns(self):
        with pytest.warns(UserWarning, match="asymptotic window"):
            blackbody(flat_model(3.0), 0.5, L=1.0)

    def test_spectrum_route_matches_counts_oracle(self):
        beta = 0.1
        cutoff = (40.0 / beta) ** 2
        spec = box_spectrum(unit_box(3), cutoff)
        got = blackbody_spectrum(spec, beta, 1.0, 1.0)
        jmax = int(cutoff / math.pi**2)
        counts = sum_of_three_squares_counts(jmax)
        j = np.nonzero(counts)[0]
        omega = math.pi * np.sqrt(j.astype(np.float64))
        want = float(np.sum(counts[j] * omega / np.expm1(beta * omega)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_stored_kernel_mode_carries_no_energy(self, stored_ms31_l3_neumann):
        # the stored ground mode is rounding noise above zero (+1.78e-14); it
        # reads as the zero mode, so it adds nothing, not about 1 / beta
        ev = stored_ms31_l3_neumann.eigenvalues
        assert 0.0 < ev[0] < 1e-13
        without = Spectrum(eigenvalues=ev[1:])
        for beta in (0.5, 1.0):
            assert blackbody_spectrum(stored_ms31_l3_neumann, beta, 1.0, 1.0) \
                == blackbody_spectrum(without, beta, 1.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            blackbody(flat_model(3.0), -1.0)
        spec = box_spectrum(unit_box(1), cutoff=1000.0)
        with pytest.raises(DomainError):
            blackbody_spectrum(spec, 1.0, 1.0, 0.0)


class TestWaveguide:
    def test_theta_trace_matches_oracle(self):
        # unit-square carpet model times a Dirichlet interval of length b:
        # the interval factor is sum_j e^(-j^2 pi^2 t / b^2), summed directly
        square = box_model(2, bc="dirichlet")
        for b, t in ((1.0, 0.04), (2.0, 1.2), (0.5, 0.5)):
            j = np.arange(1, 200)
            direct = math.fsum(np.exp(-j * j * math.pi**2 * t / b**2).tolist())
            got = waveguide_trace(square, 1.0, b, t)
            want = square.evaluate(t).real * direct
            assert got == pytest.approx(want, rel=1e-13)

    def test_product_trace_matches_cube(self):
        t = 0.03
        got = waveguide_trace(box_model(2, bc="dirichlet"), 1.0, 1.0, t)
        want = box_trace_exact(unit_box(3), t)
        assert got == pytest.approx(want, rel=1e-12)

    def test_continuum_square_zero_T(self):
        a, b = 30.0, 1.0
        energy, pressure = casimir_waveguide_zero_T(flat_model(2.0), a, b)
        assert energy / a**2 == pytest.approx(
            -math.pi**2 / (1440.0 * b**3), rel=1e-12
        )
        assert pressure == pytest.approx(-math.pi**2 / (480.0 * b**4), rel=1e-12)

    def test_pressure_scaling_in_separation(self):
        _, p1 = casimir_waveguide_zero_T(flat_model(2.0), 100.0, 1.0)
        _, p2 = casimir_waveguide_zero_T(flat_model(2.0), 100.0, 2.0)
        assert p2 == pytest.approx(p1 / 16.0, rel=1e-12)

    def test_flat_pressure_independent_of_cross_section(self):
        _, p1 = casimir_waveguide_zero_T(flat_model(2.0), 30.0, 1.0)
        _, p2 = casimir_waveguide_zero_T(flat_model(2.0), 60.0, 1.0)
        assert p1 == pytest.approx(p2, rel=1e-13)

    def test_thermal_pressure_continuum_limit(self):
        beta = 0.05
        got = casimir_waveguide_thermal(flat_model(2.0), 30.0, 1.0, beta)
        assert got == pytest.approx(math.pi**2 / (90.0 * beta**4), rel=1e-12)

    def test_thermal_pressure_plate_independent(self):
        beta = 0.05
        a = 30.0
        p1 = casimir_waveguide_thermal(flat_model(2.0), a, 1.0, beta)
        p2 = casimir_waveguide_thermal(flat_model(2.0), a, 7.0, beta)
        assert p1 == p2

    @pytest.mark.parametrize("d", [1.7, 2.6])
    def test_thermal_pressure_is_blackbody_one_dimension_up(self, d):
        # the a >> beta thermal pressure is the radiation pressure of the
        # (d_s + 1)-dimensional carpet x interval product
        beta = 0.05
        got = casimir_waveguide_thermal(flat_model(d), 30.0, 1.0, beta)
        _, want = blackbody(flat_model(d + 1.0), beta)
        assert got == pytest.approx(want, rel=1e-13)

    def test_narrow_guide_warns(self):
        with pytest.warns(UserWarning, match="asymptotic window"):
            casimir_waveguide_zero_T(flat_model(2.0), 5.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            casimir_waveguide_zero_T(flat_model(2.0), -1.0, 1.0)
        with pytest.raises(DomainError):
            casimir_waveguide_thermal(flat_model(2.0), 30.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            waveguide_trace(flat_model(2.0), 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            waveguide_trace(flat_model(2.0), 1.0, -0.5, 1.0)
