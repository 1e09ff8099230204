"""End-to-end acceptance gate.

Each test prints one line, "criterion N: PASS/FAIL (numbers)", then asserts.
Tolerances are pinned; cross-checks run against exact Euclidean references
or published dimension bands.
"""

import cmath
import json
import math
import time

import mpmath
import numpy as np

from carpetgas import eigensolve, geometry, specfun, thermo, trace, zeta
from carpetgas.cli import main as cli_main
from carpetgas.eigensolve import Spectrum
from carpetgas.graph import build_graph
from carpetgas.oracle import (
    box_model,
    box_spectrum,
    cube_photon_energy_density,
    interval_trace_exact,
    unit_box,
)
from carpetgas.trace import HeatTraceModel, ModelTerm, flat_model

mpmath.mp.dps = 40


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def rel_err(ours, reference):
    ref = complex(reference)
    return abs(complex(ours) - ref) / max(abs(ref), 1e-300)


def test_criterion_01_interval_zeta_closed_form():
    start = time.perf_counter()
    ext = zeta.build_extension(box_model(1, bc="dirichlet"), 0.0,
                               lambda t: interval_trace_exact(t), t1=1.0)
    v_half = zeta.zeta_extended(ext, -0.5)
    v_zero = zeta.zeta_extended(ext, 0.0)
    elapsed = time.perf_counter() - start
    err_half = abs(v_half - (-math.pi / 12.0))
    err_zero = abs(v_zero - (-0.5))
    ok = err_half < 1e-4 and err_zero < 1e-4 and elapsed < 10.0
    report(1, ok, f"zeta(-1/2) err {err_half:.2e}, zeta(0) err {err_zero:.2e}, "
           f"{elapsed:.2f} s")


def test_criterion_02_blackbody_classical_limit():
    beta = 0.1
    energy, _ = thermo.blackbody(flat_model(3.0), beta, L=1.0)
    want = math.pi**2 / (30.0 * beta**4)
    err_flat = abs(energy - want) / want

    beta = 0.02
    energy_cube, _ = thermo.blackbody(box_model(3, bc="dirichlet"), beta, L=1.0)
    oracle_val = cube_photon_energy_density(1.0, beta)
    err_cube = abs(energy_cube - oracle_val) / oracle_val

    ok = err_flat < 1e-10 and err_cube < 0.01
    report(2, ok, f"constant-G0 rel err {err_flat:.2e}, "
           f"cube vs photon sum rel err {err_cube:.2e}")


def test_criterion_03_waveguide_casimir_pressure(capsys):
    a, b = 20.0, 1.0
    _, pressure = thermo.casimir_waveguide_zero_T(flat_model(2.0), a, b)
    want = -math.pi**2 / (480.0 * b**4)
    err = abs(pressure - want) / abs(want)

    code = cli_main(["thermo", "casimir", "--ds", "2", "--a", "20", "--b", "1"])
    payload = json.loads(capsys.readouterr().out)
    documented = (code == 0
                  and payload["pressure_em"] == 2.0 * payload["pressure_scalar"]
                  and "polarization" in payload["note"])

    ok = err < 0.01 and documented
    report(3, ok, f"pressure rel err {err:.2e}, EM factor-2 documented: "
           f"{documented}")


def test_criterion_04_sc31_level4_dense_solve(sc31_spec):
    start = time.perf_counter()
    g = build_graph(sc31_spec, 4)
    spectrum = eigensolve.compute_spectrum(g, bc="neumann")
    elapsed = time.perf_counter() - start
    result = trace.analyze(spectrum, spec=sc31_spec)
    d_s = result["d_s"]
    bounds = geometry.dimension_bounds(sc31_spec)
    ok = (spectrum.n == 4096 and spectrum.method == "dense" and spectrum.complete
          and elapsed < 600.0
          and bounds.d_s_lower <= d_s <= bounds.d_s_upper)
    report(4, ok, f"n={spectrum.n}, solve {elapsed:.1f} s, d_s={d_s:.4f} in "
           f"[{bounds.d_s_lower:.4f}, {bounds.d_s_upper:.4f}]")


def test_criterion_05_ms31_level3_spectral_dimension(ms31_l3_neumann,
                                                     ms31_l3_analysis):
    spectrum = ms31_l3_neumann
    d_s = ms31_l3_analysis["d_s"]
    ok = (spectrum.n == 8000 and spectrum.complete and 2.21 <= d_s <= 2.60)
    report(5, ok, f"n={spectrum.n}, d_s={d_s:.4f} in published band "
           f"[2.21, 2.60]")


def test_criterion_06_log_periodic_weyl_oscillation(sc31_spec,
                                                    sc31_l4_neumann,
                                                    sc31_l4_analysis):
    d_s = sc31_l4_analysis["d_s"]
    x, w = trace.counting_ratio(sc31_l4_neumann, d_s)
    period, amp = trace.dominant_log_period(x, w)
    log_r = trace.estimate_period(sc31_spec, d_s)
    rel = abs(period - log_r) / log_r

    # pure-power counting law carries no log-periodic component
    x0 = np.linspace(math.log(2.0), math.log(400.0), 4096)
    _, amp0 = trace.dominant_log_period(x0, np.ones_like(x0))

    ok = rel < 0.15 and amp > 1e-3 and amp0 < 1e-6
    report(6, ok, f"period off log R by {rel:.3f} rel (amp {amp:.3e}), "
           f"pure-power false positive {amp0:.1e}")


def test_criterion_07_bec_dichotomy():
    def ladder(d_s, n):
        j = np.arange(1, n + 1, dtype=np.float64)
        return Spectrum(eigenvalues=(j / n) ** (2.0 / d_s))

    state = thermo.GasState(beta=1.0, z=1.0)
    sizes = (1000, 8000, 64000)

    def ratios(d_s):
        rho = [thermo.particle_density(state, ladder(d_s, n), v_s=float(n))
               for n in sizes]
        return [rho[i + 1] / rho[i] for i in range(len(rho) - 1)]

    low = ratios(1.8)   # saturated density keeps growing with level
    high = ratios(2.5)  # approaches a finite limit
    diverges = min(low) > 1.3
    converges = high[1] < high[0] and high[1] < 1.08

    verdicts = {name: thermo.bec_diagnose(geometry.preset(name)).verdict
                for name in ("MS(3,1)", "MS(6,4)", "MS(5,3)")}
    want = {"MS(3,1)": "yes", "MS(6,4)": "no", "MS(5,3)": "inconclusive"}

    ok = diverges and converges and verdicts == want
    report(7, ok, f"d_s=1.8 ratios {[f'{r:.2f}' for r in low]}, "
           f"d_s=2.5 ratios {[f'{r:.3f}' for r in high]}, verdicts {verdicts}")


def test_criterion_08_occupation_difference_bounds(sc31_l3_dirichlet):
    spectrum = sc31_l3_dirichlet
    e0 = float(spectrum.eigenvalues[0])
    m = 5
    em = float(spectrum.eigenvalues[m])
    rng = np.random.default_rng(20260823)
    worst = -math.inf
    checked = 0
    for _ in range(100):
        beta = rng.uniform(0.5, 2.0)
        cap = math.exp(beta * e0)
        z1, z2 = np.sort(rng.uniform(0.05, 0.95, size=2) * cap)[::-1]
        if z1 == z2:
            continue
        for density, e_ref in (
            (lambda st: thermo.particle_density(st, spectrum, v_s=1.0), e0),
            (lambda st: thermo.tail_density(st, spectrum, 1.0, m), em),
        ):
            r1 = density(thermo.GasState(beta=beta, z=z1))
            r2 = density(thermo.GasState(beta=beta, z=z2))
            quot = (r1 - r2) / (z1 - z2)
            lower = r2 / z2
            upper = r1 / (z1 * (1.0 - z1 * math.exp(-beta * e_ref)))
            scale = max(abs(lower), abs(quot), abs(upper))
            worst = max(worst, (lower - quot) / scale, (quot - upper) / scale)
            checked += 1
    ok = checked >= 190 and worst < 1e-10
    report(8, ok, f"{checked} inequality pairs, max normalized bound excess "
           f"{worst:.2e} (<= 0 means satisfied)")


def test_criterion_09_extension_consistency():
    ext = zeta.build_extension(box_model(1, bc="dirichlet"), 0.0,
                               lambda t: interval_trace_exact(t), t1=1.0)
    spectrum = box_spectrum(unit_box(1, "dirichlet"), cutoff=4.0e6)
    points = [0.6, 0.75, 0.9, 1.1, 1.4, 1.8, 2.3, 3.0,
              0.8 + 0.7j, 1.5 + 2.0j]
    overlap = 0.0
    for s in points:
        direct = zeta.zeta_direct(spectrum, s, d_s=1.0)
        extended = zeta.zeta_extended(ext, s)
        overlap = max(overlap, abs(extended - direct) / abs(direct))

    zero_err = max(abs(zeta.zeta_extended(ext, -float(n)))
                   for n in range(1, 6))

    model = box_model(1, bc="dirichlet")
    doubled = HeatTraceModel(
        terms=[ModelTerm(t.k, t.p, t.exponent, 2.0 * t.coefficient)
               for t in model.terms],
        period=model.period, d_s=model.d_s)
    base = zeta.build_extension(model, 0.25, lambda t: interval_trace_exact(t))
    scaled = zeta.build_extension(doubled, 0.25,
                                  lambda t: 2.0 * interval_trace_exact(t))
    linear = all(b.residue == 2.0 * a.residue and b.location == a.location
                 for a, b in zip(base.poles, scaled.poles))

    ok = overlap < 1e-4 and zero_err < 1e-8 and linear
    report(9, ok, f"overlap rel err {overlap:.2e} at {len(points)} points, "
           f"trivial zeros {zero_err:.1e}, residues linear: {linear}")


def test_criterion_10_special_function_certification():
    rng = np.random.default_rng(42)
    id_err = 0.0
    mp_err = 0.0

    def off_poles(z):
        near_axis = abs(z.imag) < 0.05 and z.real < 0.05
        return not near_axis and abs(z - round(z.real)) > 0.3

    n_pts = 0
    while n_pts < 20:
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if not (off_poles(z) and off_poles(1.0 - z) and off_poles(2.0 * z)):
            continue
        n_pts += 1
        refl = specfun.gamma(z) * specfun.gamma(1.0 - z) \
            * cmath.sin(math.pi * z) / math.pi
        id_err = max(id_err, abs(refl - 1.0))
        dup = (specfun.gamma(z) * specfun.gamma(z + 0.5)
               / (2.0 ** (1.0 - 2.0 * z) * math.sqrt(math.pi)
                  * specfun.gamma(2.0 * z)))
        id_err = max(id_err, abs(dup - 1.0))
        mp_err = max(mp_err, rel_err(specfun.gamma(z), mpmath.gamma(z)))

    for _ in range(20):
        s = complex(rng.uniform(-4.0, 4.0), rng.uniform(0.3, 4.0))
        if abs(s - 1.0) < 0.3:
            continue
        mp_err = max(mp_err, rel_err(specfun.riemann_zeta(s), mpmath.zeta(s)))
        chi = (2.0**s * math.pi ** (s - 1.0) * cmath.sin(math.pi * s / 2.0)
               * specfun.gamma(1.0 - s))
        lhs = specfun.riemann_zeta(s)
        rhs = chi * specfun.riemann_zeta(1.0 - s)
        id_err = max(id_err, abs(lhs - rhs) / abs(lhs))

    for _ in range(20):
        s = complex(rng.uniform(0.5, 4.0), rng.uniform(-2.0, 2.0))
        x = float(rng.uniform(0.05, 0.95))
        li = specfun.polylog_complex(s, x)
        mp_err = max(mp_err, rel_err(li, mpmath.polylog(s, x)))
        # closed order-1 form and the saturated boundary value
        log_form = specfun.polylog_complex(1.0, x) + math.log1p(-x)
        id_err = max(id_err, abs(log_form))
        s1 = complex(s.real + 1.2, s.imag)
        id_err = max(id_err, rel_err(specfun.polylog_complex(s1, 1.0),
                                     specfun.riemann_zeta(s1)))

    ok = id_err < 1e-10 and mp_err < 1e-12
    report(10, ok, f"identity err {id_err:.2e} (tol 1e-10), "
           f"mpmath err {mp_err:.2e} (tol 1e-12)")
