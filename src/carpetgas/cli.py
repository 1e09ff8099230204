"""Command-line pipeline over the carpet / spectrum / thermodynamics modules.

Stages write their artifacts under an output directory with content-hash
provenance in the file names; downstream stages reuse cached upstream
artifacts instead of recomputing them.  All writes go through a temp file
and an atomic rename, CSV floats are emitted with 17 significant digits and
JSON floats as Python's shortest round-trip repr, and a rerun with the same
inputs produces byte-identical files.

The cache directory defaults to <out>/cache and can be redirected with the
CARPETGAS_CACHE environment variable.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import eigensolve, geometry, oracle, thermo, trace, zeta
from .errors import DIVERGED, CarpetGasError, DomainError
from .geometry import CarpetSpec
from .graph import build_graph, export_graph

FLOAT_FMT = "%.17g"
CACHE_ENV = "CARPETGAS_CACHE"

_EUCLID_DIMS = {"interval": 1, "square": 2, "cube": 3}


def _f(x) -> str:
    return FLOAT_FMT % float(x)


def _json_safe(obj):
    """Recursively convert to JSON-serializable values."""
    if obj is DIVERGED:
        return "DIVERGED"
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_json_safe(payload), indent=1, sort_keys=True) + "\n"


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(payload) -> None:
    sys.stdout.write(_dump_json(payload))


def _key(*parts) -> str:
    blob = "|".join(str(p) for p in parts)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _error_exit(exc: BaseException) -> int:
    # KeyError wraps its message in repr quotes; unwrap for readable JSON
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
    payload = {"error": type(exc).__name__, "message": str(message)}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return 1


# ---------------------------------------------------------------------------
# shared stage plumbing


def _resolve_spec(ns: argparse.Namespace) -> CarpetSpec:
    if ns.preset and ns.spec:
        raise CarpetGasError("give either --preset or --spec, not both")
    if ns.preset:
        return geometry.preset(ns.preset)
    if ns.spec:
        return geometry.load_spec(ns.spec)
    raise CarpetGasError("a carpet is required: pass --preset or --spec")


def _out_dir(ns: argparse.Namespace) -> str:
    os.makedirs(ns.out, exist_ok=True)
    return ns.out


def _cache_dir(ns: argparse.Namespace) -> str:
    cache = os.environ.get(CACHE_ENV) or os.path.join(_out_dir(ns), "cache")
    os.makedirs(cache, exist_ok=True)
    return cache


def _level(ns: argparse.Namespace) -> int:
    if ns.level is None:
        raise CarpetGasError("this stage needs --level")
    return ns.level


def _spectrum_key(spec: CarpetSpec, level: int, bc: str) -> str:
    """Cache key of a level spectrum: its inputs, and the solver version and
    tolerances, so a solver change misses the cache."""
    settings = json.dumps(eigensolve.solver_settings(), sort_keys=True)
    return _key("spectrum", spec.spec_hash(), level, bc, settings)


def _model_key(spec: CarpetSpec, level: int, bc: str, n: int, p_max: int, digest: str) -> str:
    """Cache key of a trace model; the analysis version keys it too."""
    return _key("trace", spec.spec_hash(), level, bc, n, p_max, digest, trace.ANALYSIS_VERSION)


def _spectrum_for(ns, spec: CarpetSpec):
    """Load the level spectrum from the cache, computing it on a miss."""
    level = _level(ns)
    key = _spectrum_key(spec, level, ns.bc)
    path = os.path.join(_cache_dir(ns), f"spectrum-{key}.json")
    if os.path.exists(path):
        return eigensolve.load_spectrum(path), path, True
    spectrum = eigensolve.compute_spectrum(build_graph(spec, level), bc=ns.bc)
    eigensolve.save_spectrum(spectrum, path)
    return spectrum, path, False


def _analysis_for(ns, spec: CarpetSpec, reuse: bool = True):
    """Trace model of the carpet chain, cached alongside the spectrum.

    The model file is keyed on the spectrum file's bytes.  With ``reuse`` a
    cached model is read back (JSON floats round-trip exactly); otherwise,
    or on a miss, the spectrum is analysed and the model written.  Only an
    analysis carries d_s_stderr and the fit series.
    """
    spectrum, spath, s_cached = _spectrum_for(ns, spec)
    with open(spath, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    key = _model_key(spec, _level(ns), spectrum.bc, spectrum.n, ns.p_max, digest)
    mpath = os.path.join(_cache_dir(ns), f"model-{key}.json")
    chain = dict(spectrum=spectrum, spectrum_path=spath,
                 spectrum_cached=s_cached, model_path=mpath, key=key)
    if reuse and os.path.exists(mpath):
        return dict(chain, model=trace.load_model(mpath), model_cached=True)
    result = trace.analyze(spectrum, spec=spec, p_max=ns.p_max)
    trace.save_model(result["model"], mpath)
    result.update(chain, model_cached=False)
    return result


def _source(ns):
    """Heat-trace source: an exact --euclid box, a flat --ds law, or a carpet.

    Returns (model, tail, tag).  The tail is the box's exact trace, None for
    a flat law, or the carpet's spectrum.  A box is Dirichlet unless --bc is
    given.
    """
    if ns.euclid is not None:
        bc = ns.bc if "bc" in ns.given else "dirichlet"
        dim = _EUCLID_DIMS[ns.euclid]
        exact = functools.partial(oracle.box_trace_exact, oracle.unit_box(dim, bc))
        return oracle.box_model(dim, bc), exact, f"euclid-{ns.euclid}-{bc}"
    if ns.ds is not None:
        coef = (4.0 * math.pi) ** (-ns.ds / 2.0)
        model = trace.HeatTraceModel(
            terms=[trace.ModelTerm(0, 0, complex(ns.ds / 2.0), complex(coef))],
            period=1.0, d_s=ns.ds)
        return model, None, f"flat-ds-{_f(ns.ds)}"
    result = _analysis_for(ns, _resolve_spec(ns))
    return result["model"], result["spectrum"], f"carpet-{result['key']}"


# ---------------------------------------------------------------------------
# carpet stage


def cmd_carpet_validate(ns) -> int:
    spec = _resolve_spec(ns)
    report = geometry.validate_spec(spec)
    payload = {
        "stage": "carpet-validate",
        "name": spec.name,
        "d": spec.d,
        "l": spec.l,
        "m": spec.m,
        "spec_hash": spec.spec_hash(),
        "validation": report.as_dict(),
    }
    if report.ok:
        payload["dimensions"] = geometry.dimension_bounds(spec, check=False).as_dict()
    path = os.path.join(_out_dir(ns), f"carpet-{spec.spec_hash()}.json")
    _write_atomic(path, _dump_json(payload))
    payload["artifact"] = path
    _emit(payload)
    return 0 if report.ok else 1


def cmd_carpet_info(ns) -> int:
    if ns.preset is None and ns.spec is None:
        rows = []
        for name in geometry.preset_names():
            spec = geometry.preset(name)
            rows.append({
                "name": name,
                "d": spec.d,
                "l": spec.l,
                "m": spec.m,
                "d_h": spec.d_h,
                "ds_published": list(spec.ds_published) if spec.ds_published else None,
                "ds_numeric": spec.ds_numeric,
            })
        _emit({"stage": "carpet-info", "presets": rows})
        return 0
    spec = _resolve_spec(ns)
    payload = {
        "stage": "carpet-info",
        "name": spec.name,
        "spec_hash": spec.spec_hash(),
        "text": geometry.format_spec_text(spec),
        "dimensions": geometry.dimension_bounds(spec).as_dict(),
        "ds_published": list(spec.ds_published) if spec.ds_published else None,
        "ds_numeric": spec.ds_numeric,
    }
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# graph / spectrum stages


def cmd_graph_build(ns) -> int:
    spec = _resolve_spec(ns)
    level = _level(ns)
    key = _key("graph", spec.spec_hash(), level, ns.adjacency)
    out = _out_dir(ns)
    edges_path = os.path.join(out, f"graph-{key}.edges")
    meta_path = os.path.join(out, f"graph-{key}.json")
    cached = os.path.exists(edges_path) and os.path.exists(meta_path)
    if cached:
        with open(meta_path) as fh:
            meta = json.load(fh)
    else:
        g = build_graph(spec, level, ns.adjacency)
        export_graph(g, edges_path + ".tmp", meta_path + ".tmp")
        os.replace(edges_path + ".tmp", edges_path)
        os.replace(meta_path + ".tmp", meta_path)
        meta = {
            "n_vertices": g.n_vertices,
            "n_edges": g.n_edges,
            "n_boundary": int(g.boundary.size),
        }
    _emit({
        "stage": "graph-build",
        "cached": cached,
        "edges": edges_path,
        "meta": meta_path,
        "n_vertices": meta["n_vertices"],
        "n_edges": meta["n_edges"],
        "n_boundary": meta["n_boundary"],
    })
    return 0


def cmd_spectrum_compute(ns) -> int:
    spec = _resolve_spec(ns)
    spectrum, path, cached = _spectrum_for(ns, spec)
    _emit({
        "stage": "spectrum-compute",
        "cached": cached,
        "artifact": path,
        "n": spectrum.n,
        "bc": spectrum.bc,
        "method": spectrum.method,
        "blocks": spectrum.blocks,
        "num_zero_modes": spectrum.num_zero_modes,
        "lambda_max": spectrum.lambda_max,
    })
    return 0


# ---------------------------------------------------------------------------
# trace stage


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render the Weyl-ratio curve W(s) = N(s)/s^(d_s/2) from {csv}.\"\"\"
import csv

import matplotlib.pyplot as plt

s, W = [], []
with open({csv!r}) as fh:
    for row in csv.DictReader(fh):
        s.append(float(row["s"]))
        W.append(float(row["W"]))

fig, ax = plt.subplots(figsize=(6.0, 3.6))
ax.semilogx(s, W, lw=1.0)
ax.set_xlabel("s = lambda / lambda_1")
ax.set_ylabel("W(s)")
ax.set_title("Weyl ratio, d_s = {ds}")
fig.tight_layout()
fig.savefig({png!r}, dpi=160)
print("wrote", {png!r})
"""


def cmd_trace_analyze(ns) -> int:
    spec = _resolve_spec(ns)
    result = _analysis_for(ns, spec, reuse=False)
    d_s = result["d_s"]
    model = result["model"]
    key = result["key"]
    out = _out_dir(ns)

    # Weyl-ratio samples (s, W(s)): W = N(s)/s^(d_s/2) with s = lambda/lambda_1
    x, W = trace.counting_ratio(result["spectrum"], d_s)
    try:
        counting_period, _ = trace.dominant_log_period(x, W)
        counting_period_ratio = counting_period / result["period"]
    except DomainError:  # curve too short to hold two periods
        counting_period_ratio = None
    lines = ["s,W"]
    for xi, wi in zip(x, W):
        lines.append(f"{_f(math.exp(xi))},{_f(wi)}")
    csv_path = os.path.join(out, f"weyl-{key}.csv")
    _write_atomic(csv_path, "\n".join(lines) + "\n")

    plot_path = os.path.join(out, f"weyl_plot-{key}.py")
    _write_atomic(plot_path, _PLOT_SCRIPT.format(
        csv=os.path.basename(csv_path), ds=_f(d_s),
        png=os.path.basename(csv_path).replace(".csv", ".png")))

    ghat_lines = ["k,p,re_exponent,im_exponent,re_coefficient,im_coefficient"]
    for term in sorted(model.terms, key=lambda t: (t.k, t.p)):
        ghat_lines.append(",".join([
            str(term.k), str(term.p),
            _f(term.exponent.real), _f(term.exponent.imag),
            _f(term.coefficient.real), _f(term.coefficient.imag),
        ]))
    ghat_path = os.path.join(out, f"ghat-{key}.csv")
    _write_atomic(ghat_path, "\n".join(ghat_lines) + "\n")

    _emit({
        "stage": "trace-analyze",
        "d_s": d_s,
        "d_s_stderr": result["d_s_stderr"],
        "period": result["period"],
        "counting_period_ratio": counting_period_ratio,
        "bounds": geometry.dimension_bounds(spec).as_dict(),
        "spectrum_cached": result["spectrum_cached"],
        "model": result["model_path"],
        "weyl_csv": csv_path,
        "weyl_plot": plot_path,
        "ghat_csv": ghat_path,
    })
    return 0


# ---------------------------------------------------------------------------
# zeta stage


def _extension_for(ns):
    """Zeta continuation of an exact --euclid box or a carpet chain.

    On a carpet, gamma is 1 when the spectrum has a zero mode and t1 is
    min(1, zeta.TAIL_DECAY / (lambda_max + gamma)), each unless given.
    """
    model, tail, tag = _source(ns)
    gamma, t1 = ns.gamma, ns.t1
    if isinstance(tail, eigensolve.Spectrum):
        if "gamma" not in ns.given and tail.num_zero_modes:
            gamma = 1.0  # Neumann zero mode needs a positive shift
        if "t1" not in ns.given:
            t1 = min(1.0, zeta.TAIL_DECAY / (tail.lambda_max + gamma))
    ext = zeta.build_extension(model, gamma=gamma, tail=tail, t1=t1,
                               n_max=ns.nmax)
    return ext, f"{tag}-g{_f(gamma)}-t{_f(t1)}"


def cmd_zeta_eval(ns) -> int:
    if ns.s is None:
        raise CarpetGasError("zeta eval needs --s (complex, e.g. '-0.5' or '1+2j')")
    s = complex(ns.s)
    ext, tag = _extension_for(ns)
    value = zeta.zeta_extended(ext, s)
    key = _key("zeta-eval", tag, _f(s.real), _f(s.imag))
    csv_path = os.path.join(_out_dir(ns), f"zeta_eval-{key}.csv")
    _write_atomic(csv_path, "re_s,im_s,re_value,im_value,error_bound\n"
                  + ",".join([_f(s.real), _f(s.imag), _f(value.real),
                              _f(value.imag), _f(ext.last_error)]) + "\n")
    _emit({
        "stage": "zeta-eval",
        "source": tag,
        "s": s,
        "value": value,
        "error_bound": ext.last_error,
        "artifact": csv_path,
    })
    return 0


def cmd_zeta_poles(ns) -> int:
    ext, tag = _extension_for(ns)
    key = _key("zeta-poles", tag)
    path = os.path.join(_out_dir(ns), f"zeta_poles-{key}.csv")
    zeta.export_poles_csv(ext, path + ".tmp")
    os.replace(path + ".tmp", path)
    towers = sorted({(p.k, p.p) for p in ext.poles})
    _emit({
        "stage": "zeta-poles",
        "source": tag,
        "n_poles": len(ext.poles),
        "towers": [list(t) for t in towers],
        "artifact": path,
    })
    return 0


def cmd_zeta_casimir(ns) -> int:
    if ns.gamma != 0.0:
        raise CarpetGasError("casimir energy is defined at gamma = 0")
    ext, tag = _extension_for(ns)
    energy = zeta.casimir_energy(ext)
    _emit({
        "stage": "zeta-casimir",
        "source": tag,
        "energy": energy,
        "definition": "E = (1/2) zeta(-1/2) at gamma = 0",
    })
    return 0


# ---------------------------------------------------------------------------
# thermo stage


def cmd_thermo_bec(ns) -> int:
    spec = _resolve_spec(ns)
    fitted = None
    model = None
    chain = {}
    if ns.level is not None:
        result = _analysis_for(ns, spec)
        fitted = model = result["model"]
        chain = {"spectrum_cached": result["spectrum_cached"],
                 "model_cached": result["model_cached"],
                 "model_artifact": result["model_path"]}
    report = thermo.bec_diagnose(spec, fitted=fitted)
    payload = {
        "stage": "thermo-bec",
        "verdict": report.verdict,
        "d_s_lower": report.d_s_lower,
        "d_s_upper": report.d_s_upper,
        "d_s_fitted": report.d_s_fitted,
        "transient": report.transient,
    }
    payload.update(chain)
    if model is not None:
        hi, lo = thermo.critical_densities(model, ns.beta)
        payload["beta"] = ns.beta
        payload["critical_density_upper"] = hi
        payload["critical_density_lower"] = lo
    path = os.path.join(_out_dir(ns), f"bec-{spec.spec_hash()}.json")
    _write_atomic(path, _dump_json(payload))
    payload["artifact"] = path
    _emit(payload)
    return 0


def cmd_thermo_blackbody(ns) -> int:
    model, _tail, tag = _source(ns)
    energy, pressure = thermo.blackbody(model, ns.beta, ns.length)
    _emit({
        "stage": "thermo-blackbody",
        "source": tag,
        "beta": ns.beta,
        "L": ns.length,
        "d_s": model.d_s,
        "energy_density": energy,
        "pressure": pressure,
    })
    return 0


def cmd_thermo_casimir(ns) -> int:
    model, _tail, tag = _source(ns)
    energy, pressure = thermo.casimir_waveguide_zero_T(model, ns.a, ns.b)
    payload = {
        "stage": "thermo-casimir",
        "source": tag,
        "a": ns.a,
        "b": ns.b,
        "energy": energy,
        "pressure_scalar": pressure,
        "pressure_em": 2.0 * pressure,
        "note": ("scalar field with Dirichlet plates; the electromagnetic "
                 "field carries two polarizations, so multiply the scalar "
                 "pressure by 2 (square cross-section continuum limit: "
                 "-pi^2/480 b^4 scalar, -pi^2/240 b^4 EM)"),
    }
    if "beta" in ns.given:
        payload["beta"] = ns.beta
        payload["pressure_thermal"] = thermo.casimir_waveguide_thermal(
            model, ns.a, ns.b, ns.beta)
    _emit(payload)
    return 0


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, n = text.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError as exc:
        raise CarpetGasError(f"bad grid {text!r}; expected lo:hi:n") from exc


def cmd_thermo_sweep(ns) -> int:
    model, _tail, tag = _source(ns)
    grid = _parse_grid(SWEEP_GRIDS[ns.quantity] if ns.grid is None else ns.grid)
    # in_window is 1 on rows inside the model path's asymptotic window, at
    # the default domain scale L = 1
    flags = []
    if ns.quantity == "density":
        lines = ["z,density,in_window"]
        inside = int(1.0 / ns.beta >= thermo.MASSIVE_REGIME)
        for z in grid:
            state = thermo.GasState(beta=ns.beta, z=float(z))
            rho = thermo.particle_density(state, model)
            flags.append(inside)
            lines.append(f"{_f(z)},{_f(rho)},{inside}")
        key = _key("sweep-density", tag, _f(ns.beta), ns.grid)
    else:
        lines = ["beta,energy_density,pressure,in_window"]
        for beta in grid:
            energy, pressure = thermo.blackbody(model, float(beta))
            inside = int(1.0 / beta >= thermo.MASSLESS_REGIME)
            flags.append(inside)
            lines.append(f"{_f(beta)},{_f(energy)},{_f(pressure)},{inside}")
        key = _key("sweep-blackbody", tag, ns.grid)
    path = os.path.join(_out_dir(ns), f"sweep-{ns.quantity}-{key}.csv")
    _write_atomic(path, "\n".join(lines) + "\n")
    _emit({"stage": "thermo-sweep", "quantity": ns.quantity, "source": tag,
           "rows": len(flags), "rows_in_window": sum(flags), "artifact": path})
    return 0


# ---------------------------------------------------------------------------
# oracle stage


def cmd_oracle_selftest(ns) -> int:
    checks = []

    def check(name, err, tol):
        checks.append({"name": name, "error": float(err), "tol": tol,
                       "ok": bool(err <= tol)})

    # theta crossover: direct sum and Poisson form agree at tau = 1
    direct = oracle.interval_trace_exact(1.0)
    poisson = oracle.interval_trace_exact(float(np.nextafter(1.0, 0.0)))
    check("interval-theta-crossover", abs(direct - poisson), 1e-13)

    # finite cube spectrum reproduces the exact trace when the tail is tiny
    box = oracle.unit_box(3, "dirichlet")
    spec3 = oracle.box_spectrum(box, 3000.0)
    t = 0.05
    direct = float(np.sum(np.exp(-t * spec3.eigenvalues)))
    check("cube-trace-vs-spectrum", abs(direct - oracle.box_trace_exact(box, t)),
          1e-10)

    # short-time box model matches the exact trace off the remainder scale
    model1 = oracle.box_model(1, "dirichlet")
    check("interval-model-short-time",
          abs(model1.evaluate(0.02).real - oracle.interval_trace_exact(0.02)),
          1e-12)

    # blackbody constant reduces to the classical value in three dimensions
    beta = 0.7
    check("blackbody-d3-constant",
          abs(oracle.euclid_blackbody(3, beta) - math.pi**2 / (30.0 * beta**4)),
          1e-12)

    # three-squares counts against a brute-force triple loop
    jmax = 400
    counts = oracle.sum_of_three_squares_counts(jmax)
    brute = np.zeros(jmax + 1, dtype=np.int64)
    top = int(math.isqrt(jmax))
    for n1 in range(1, top + 1):
        for n2 in range(1, top + 1):
            for n3 in range(1, top + 1):
                j = n1 * n1 + n2 * n2 + n3 * n3
                if j <= jmax:
                    brute[j] += 1
    check("three-squares-counts", int(np.abs(counts - brute).max()), 0)

    # interval Casimir energy from the analytic zeta value
    check("interval-casimir", abs(oracle.interval_casimir_energy()
                                  + math.pi / 24.0), 1e-12)

    # critical density markers
    check("bec-critical-d2-diverges",
          0.0 if oracle.euclid_bec_critical(2, 1.0) is DIVERGED else 1.0, 0.0)
    rho_c = oracle.euclid_bec_critical(3, 1.0)
    check("bec-critical-d3-finite",
          0.0 if (isinstance(rho_c, float) and rho_c > 0) else 1.0, 0.0)

    ok = all(c["ok"] for c in checks)
    for c in checks:
        sys.stdout.write("%s %s err=%s tol=%s\n" % (
            "ok" if c["ok"] else "FAIL", c["name"], _f(c["error"]), _f(c["tol"])))
    sys.stdout.write("oracle selftest: %d/%d passed\n"
                     % (sum(c["ok"] for c in checks), len(checks)))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# options: declared once, resolved once


@dataclass(frozen=True)
class Option:
    """A command-line option, flag ``--name`` with ``_`` as ``-``.  ``type``
    and ``choices`` check its text from the command line and the config file
    alike; ``default`` applies when neither sets it.
    """

    help: str
    default: object = None
    type: type | None = None
    choices: tuple | None = None


# lo:hi:n grid of each sweep quantity when --grid is not given
SWEEP_GRIDS = {"density": "0.05:0.95:19", "blackbody": "0.05:0.5:10"}

OPTIONS = {
    "preset": Option("carpet preset name, e.g. SC(3,1)"),
    "spec": Option("path to a carpet description file"),
    "level": Option("approximation level n", type=int),
    "bc": Option("boundary condition; a --euclid box is dirichlet unless given",
                 "neumann", choices=("neumann", "dirichlet")),
    "out": Option("output directory", "."),
    "config": Option("JSON file with default option values; flags win"),
    "adjacency": Option("cell adjacency of the level graph", "face",
                        choices=("face", "vertex")),
    "p_max": Option("highest Fourier index extracted", trace.P_MAX_DEFAULT,
                    type=int),
    "euclid": Option("use an exact Euclidean box instead of a carpet",
                     choices=tuple(sorted(_EUCLID_DIMS))),
    "ds": Option("flat model with this spectral dimension", type=float),
    "gamma": Option("spectral shift; a carpet with a zero mode takes 1 unless "
                    "given", 0.0, type=float),
    "t1": Option("Mellin split point; a carpet takes min(1, "
                 f"{zeta.TAIL_DECAY:g}/(lambda_max + gamma)) unless given",
                 1.0, type=float),
    "nmax": Option("expansion depth per tower", zeta.N_MAX_DEFAULT, type=int),
    "s": Option("evaluation point, complex literal"),
    "beta": Option("inverse temperature; thermo casimir adds the thermal "
                   "pressure only when given", 1.0, type=float),
    "length": Option("box side L", 1.0, type=float),
    "a": Option("cross-section side", 20.0, type=float),
    "b": Option("plate separation", 1.0, type=float),
    "quantity": Option("swept observable", "density", choices=tuple(SWEEP_GRIDS)),
    "grid": Option("lo:hi:n sweep grid; by quantity, default "
                   + ", ".join(f"{g} for {q}" for q, g in SWEEP_GRIDS.items())),
}

COMMON = ("preset", "spec", "level", "bc", "out", "config")
CHAIN = ("p_max",)
ZETA = ("euclid",) + CHAIN + ("gamma", "t1", "nmax")
THERMO = ("euclid", "ds") + CHAIN + ("beta",)

STAGE_HELP = {
    "carpet": "validate or describe a carpet",
    "graph": "build level graphs",
    "spectrum": "compute level spectra",
    "trace": "heat-trace analysis",
    "zeta": "spectral zeta continuation",
    "thermo": "quantum-gas thermodynamics",
    "oracle": "exact Euclidean cross-checks",
}

# (stage, action, handler, options besides COMMON)
STAGES = (
    ("carpet", "validate", cmd_carpet_validate, ()),
    ("carpet", "info", cmd_carpet_info, ()),
    ("graph", "build", cmd_graph_build, ("adjacency",)),
    ("spectrum", "compute", cmd_spectrum_compute, ()),
    ("trace", "analyze", cmd_trace_analyze, CHAIN),
    ("zeta", "eval", cmd_zeta_eval, ZETA + ("s",)),
    ("zeta", "poles", cmd_zeta_poles, ZETA),
    ("zeta", "casimir", cmd_zeta_casimir, ZETA),
    ("thermo", "bec", cmd_thermo_bec, CHAIN + ("beta",)),
    ("thermo", "blackbody", cmd_thermo_blackbody, THERMO + ("length",)),
    ("thermo", "casimir", cmd_thermo_casimir, THERMO + ("a", "b")),
    ("thermo", "sweep", cmd_thermo_sweep, THERMO + ("quantity", "grid")),
    ("oracle", "selftest", cmd_oracle_selftest, ()),
)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The stage parser, built once per process: parse_args leaves it as it
    was, every value lands on a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="carpetgas",
        description="Carpet spectra and quantum-gas thermodynamics pipeline")
    stages = parser.add_subparsers(dest="stage", required=True)
    actions = {}
    for stage, action, handler, extra in STAGES:
        if stage not in actions:
            actions[stage] = stages.add_parser(
                stage, help=STAGE_HELP[stage]).add_subparsers(dest="action",
                                                              required=True)
        sub = actions[stage].add_parser(action)
        names = COMMON + extra
        for name in names:
            opt = OPTIONS[name]
            text = opt.help if opt.default is None else \
                f"{opt.help} (default {opt.default})"
            sub.add_argument(_flag(name), type=opt.type, choices=opt.choices,
                             help=text)
        sub.set_defaults(func=handler, options=names)
    return parser


def _config_value(name: str, value):
    """A config-file value put through the type and choices checks of its flag."""
    opt = OPTIONS[name]
    convert = opt.type or str
    try:
        value = convert(str(value))
    except ValueError as exc:
        raise CarpetGasError(f"config {_flag(name)}: invalid "
                             f"{convert.__name__} value {value!r}") from exc
    if opt.choices is not None and value not in opt.choices:
        raise CarpetGasError(f"config {_flag(name)}: invalid choice {value!r} "
                             f"(choose from {', '.join(opt.choices)})")
    return value


def _resolve_options(ns: argparse.Namespace) -> None:
    """Set every option once: the flag, else the --config value, else the
    table default.  Options the stage does not take are None; ``ns.given``
    names those set by a flag or the config file.
    """
    config = {}
    if ns.config is not None:
        with open(ns.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise CarpetGasError("config file must hold a JSON object")
        config = {key.replace("-", "_"): value for key, value in config.items()}
    given = {}
    for name in ns.options:
        value = getattr(ns, name)
        if value is None and config.get(name) is not None:
            value = _config_value(name, config[name])
        if value is not None:
            given[name] = value
    for name, opt in OPTIONS.items():
        default = opt.default if name in ns.options else None
        setattr(ns, name, given.get(name, default))
    ns.given = frozenset(given)


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        _resolve_options(ns)
        return ns.func(ns)
    except (CarpetGasError, OSError, ValueError, LookupError) as exc:
        return _error_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
