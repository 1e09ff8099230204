"""The three benchmark workloads and the checks on their outputs.

Each workload has:

- ``load_inputs()``: what set-up pays besides the package import (timed
  into setup_s);
- ``prepare(rng)``: draws the seeded inputs and computes check references
  (untimed);
- ``warm_up(rec)``: a small run over the same code paths, so the first timed
  pass does not pay for lazy imports (untimed, unchecked);
- ``run_pass(rec)``: one timed pass; library calls go through ``rec.call``
  or ``rec.cli`` and land in a named phase, checks go through ``rec.check``;
- ``probes(rec)``: calls known to fail (see README).  They run once per
  pass, untimed, and count into error_rate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

from carpetgas import cli, eigensolve, geometry, graph, oracle, thermo, trace, zeta
from carpetgas.errors import DIVERGED

DATA = Path(__file__).resolve().parent / "data"
SPECTRUM_RTOL = 1e-9   # max |d lambda| <= SPECTRUM_RTOL * lambda_max
ZERO_TOL = 1e-8        # eigenvalues at or below this count as zero modes

# Vertex and edge counts of the level graphs (face adjacency); both are fixed
# by the carpet geometry.
GRAPHS = {("SC(3,1)", 6): (262144, 418264), ("MS(3,1)", 4): (160000, 311808),
          ("SC(3,1)", 4): (4096, 6424)}


def read_reference(name: str) -> np.ndarray:
    """Eigenvalues of a reference spectrum stored with the benchmark."""
    with open(DATA / f"{name}.json") as fh:
        return np.asarray(json.load(fh)["eigenvalues"], dtype=np.float64)


def read_artifact(path: str) -> tuple[np.ndarray, dict]:
    with open(path) as fh:
        payload = json.load(fh)
    return np.asarray(payload["eigenvalues"], dtype=np.float64), payload["header"]


def flat_model(d_s: float) -> trace.HeatTraceModel:
    """Heat-trace law of a Euclidean domain of dimension d_s, unit volume."""
    coef = (4.0 * math.pi) ** (-d_s / 2.0)
    return trace.HeatTraceModel(terms=[trace.ModelTerm(0, 0, complex(d_s / 2.0), complex(coef))],
                                period=1.0, d_s=float(d_s))


def rel_err(got, want) -> float:
    return abs(complex(got) - complex(want)) / max(abs(complex(want)), 1e-300)


class PassRecord:
    """Timed calls, operation and check counts of one pass."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.ops: list[tuple[str, float]] = []  # (phase, seconds) of each timed call, in order
        self.attempted = 0
        self.failed = 0
        self.known_failures = 0
        self.messages: list[str] = []
        self.max_dev = 0.0
        self.zeta_evals = 0
        self.zeta_eval_s = 0.0
        self.artifact_bytes = 0
        self.wall = 0.0

    def _timed(self, phase: str, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ops.append((phase, perf_counter() - t0))

    def call(self, phase: str, label: str, fn, *args, **kwargs):
        """One library operation; a raised exception counts as a failure."""
        self.attempted += 1
        try:
            return self._timed(phase, fn, *args, **kwargs)
        except Exception as exc:  # every failure is counted and reported
            self.failed += 1
            self.messages.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def cli(self, phase: str, argv: list[str]):
        """carpetgas.cli.main in-process; returns (exit code, stdout)."""
        self.attempted += 1
        code, out, err = self._timed(phase, run_cli, argv)
        if code != 0:
            self.failed += 1
            self.messages.append(f"cli {' '.join(argv)}: exit {code}: {err.strip()}")
        return code, out

    def cli_json(self, phase: str, argv: list[str]) -> dict:
        code, text = self.cli(phase, argv)
        return json.loads(text) if code == 0 else {}

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"check {label} failed {detail}".rstrip())
        return bool(ok)

    def probe(self, fn) -> None:
        """Known-failure probe: ``fn`` returns True on success; a raise or a
        False counts into error_rate, not into ``failed``."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception:  # the known failure; anything raised counts
            ok = False
        if not ok:
            self.known_failures += 1

    def check_spectrum(self, label: str, ev: np.ndarray, complete: bool,
                       ref: np.ndarray, zero_modes: int) -> None:
        """Same size, complete, expected zero modes, max deviation within tolerance."""
        self.check(f"{label} n", ev.size == ref.size, f"{ev.size} != {ref.size}")
        self.check(f"{label} complete", complete)
        zeros = int(np.count_nonzero(ev <= ZERO_TOL))
        self.check(f"{label} zero modes", zeros == zero_modes, f"{zeros} != {zero_modes}")
        if ev.size == ref.size:
            dev = float(np.max(np.abs(ev - ref))) / float(ref[-1])
            self.max_dev = max(self.max_dev, dev)
            self.check(f"{label} deviation", dev <= SPECTRUM_RTOL, f"{dev:.3e}")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """carpetgas.cli.main with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_args(preset: str, level: int, out: Path, bc: str = "neumann") -> list[str]:
    return ["--preset", preset, "--level", str(level), "--bc", bc, "--out", str(out)]


class ColdChain:
    """First run of the README CLI chain against an empty cache."""

    name = "cold-chain"
    # (preset, level, bc, reference, zero modes)
    SPECTRA = (("SC(3,1)", 4, "neumann", "sc31-l4-neumann", 1),
               ("MS(3,1)", 2, "neumann", "ms31-l2-neumann", 1),
               ("SC(3,1)", 3, "dirichlet", "sc31-l3-dirichlet", 0))

    def load_inputs(self):
        self.refs = {s[3]: read_reference(s[3]) for s in self.SPECTRA}

    def prepare(self, rng):
        self.beta = float(math.exp(rng.uniform(math.log(0.2), math.log(5.0))))
        self.spec = geometry.preset("SC(3,1)")
        self.bounds = geometry.dimension_bounds(self.spec)

    def warm_up(self, rec):
        args = _cli_args("SC(3,1)", 3, rec.out_dir)
        for stage in (["spectrum", "compute"], ["trace", "analyze"], ["zeta", "poles"],
                      ["thermo", "bec"]):
            rec.cli("warm-up", stage + args)

    def run_pass(self, rec):
        out = rec.out_dir
        for preset, level, bc, ref, zeros in self.SPECTRA:
            doc = rec.cli_json("spectrum", ["spectrum", "compute"] + _cli_args(preset, level, out, bc))
            if rec.check(f"{ref} computed", doc.get("cached") is False, str(doc.get("cached"))):
                ev, header = read_artifact(doc["artifact"])
                rec.check_spectrum(ref, ev, header.get("complete") is True, self.refs[ref], zeros)

        args = _cli_args("SC(3,1)", 4, out)
        lo, hi = self.bounds.d_s_lower, self.bounds.d_s_upper
        doc = rec.cli_json("observables", ["trace", "analyze"] + args)
        if rec.check("trace analyze", bool(doc)):
            rec.check("trace d_s in bounds", lo <= doc["d_s"] <= hi, f"{doc['d_s']}")
            rec.check("trace spectrum cache hit", doc["spectrum_cached"] is True)
            rec.check("trace artifacts", all(os.path.getsize(doc[k]) > 0 for k in
                                             ("model", "weyl_csv", "ghat_csv")))
        doc = rec.cli_json("observables", ["zeta", "poles"] + args)
        if rec.check("zeta poles", bool(doc)):
            with open(doc["artifact"]) as fh:
                rows = sum(1 for _ in fh) - 1
            rec.check("zeta pole table", doc["n_poles"] > 0 and rows == doc["n_poles"],
                      f"{rows} rows, {doc['n_poles']} poles")
        doc = rec.cli_json("observables", ["thermo", "bec"] + args + ["--beta", repr(self.beta)])
        if rec.check("thermo bec", bool(doc)):
            # SC(3,1) has d_s < 2: no condensation, critical densities diverge
            rec.check("bec verdict", doc["verdict"] == "no", doc["verdict"])
            rec.check("bec fitted d_s", lo <= doc["d_s_fitted"] <= hi)
            rec.check("bec critical densities", doc["critical_density_upper"] == "DIVERGED"
                      and doc["critical_density_lower"] == "DIVERGED")

    def probes(self, rec):
        # _extension_for moves gamma to 1 for the Neumann zero mode, and
        # casimir_energy then rejects gamma != 0
        rec.probe(lambda: run_cli(["zeta", "casimir"]
                                  + _cli_args("SC(3,1)", 4, rec.out_dir))[0] == 0)
        # the fitted Dirichlet d_s (2.22) lies above d = 2 and is rejected
        rec.probe(lambda: run_cli(["trace", "analyze"]
                                  + _cli_args("SC(3,1)", 3, rec.out_dir, "dirichlet"))[0] == 0)


class SlicedScale:
    """Graph build at the paper's higher levels plus a certified bottom slice."""

    name = "sliced-scale"
    LARGE = (("SC(3,1)", 6), ("MS(3,1)", 4))
    MODES = 128  # the reference has a wide gap (0.0128) between modes 128 and 129

    def load_inputs(self):
        self.ref = read_reference("sc31-l4-neumann")

    def prepare(self, rng):
        ref = self.ref
        self.window = (-0.5 * float(ref[1]), 0.5 * float(ref[self.MODES - 1] + ref[self.MODES]))
        self.arpack_seed = int(rng.integers(2**31))
        self.specs = {name: geometry.preset(name) for name in ("SC(3,1)", "MS(3,1)")}

    def warm_up(self, rec):
        g = graph.build_graph(self.specs["SC(3,1)"], 3)
        L = graph.laplacian(g)
        eigensolve.slice_spectrum(L, (-0.01, 0.2), seed=self.arpack_seed)

    def _laplacian(self, rec, preset, level):
        g = rec.call("spectrum", f"build_graph {preset} L{level}", graph.build_graph,
                     self.specs[preset], level)
        if g is None:
            return None
        L = rec.call("spectrum", f"laplacian {preset} L{level}", graph.laplacian, g)
        if L is None:
            return None
        vertices, edges = GRAPHS[(preset, level)]
        label = f"{preset} L{level}"
        rec.check(f"{label} graph size", (g.n_vertices, g.n_edges) == (vertices, edges),
                  f"{(g.n_vertices, g.n_edges)}")
        rec.check(f"{label} laplacian shape", L.shape == (vertices, vertices))
        rec.check(f"{label} laplacian trace", float(L.diagonal().sum()) == 2.0 * edges)
        rec.check(f"{label} laplacian row sums",
                  float(np.max(np.abs(np.asarray(L.sum(axis=1))))) == 0.0)
        rec.check(f"{label} laplacian symmetric", abs(L - L.T).nnz == 0)
        return L

    def run_pass(self, rec):
        for preset, level in self.LARGE:
            self._laplacian(rec, preset, level)
        L = self._laplacian(rec, "SC(3,1)", 4)
        if L is None:
            return
        spectrum = rec.call("spectrum", "slice_spectrum SC(3,1) L4", eigensolve.slice_spectrum,
                            L, self.window, budget=400, seed=self.arpack_seed)
        if spectrum is not None:
            rec.check_spectrum("sc31-l4 bottom slice", spectrum.eigenvalues, spectrum.complete,
                               self.ref[:self.MODES], 1)

    def probes(self, rec):
        pass


class WarmObservables:
    """Observables from cached spectra: trace law, zeta continuation, gas laws."""

    name = "warm-observables"
    CARPETS = (("SC(3,1)", "sc31-l4-neumann"), ("MS(3,1)", "ms31-l3-neumann"))
    ZETA_POINTS = 12
    BOX_CUTOFF = 2.0e4

    def load_inputs(self):
        self.spectra = {name: eigensolve.load_spectrum(str(DATA / f"{ref}.json"))
                        for name, ref in self.CARPETS}

    def prepare(self, rng):
        import mpmath  # check reference only

        self.specs = {name: geometry.preset(name) for name, _ in self.CARPETS}
        sc_bounds = geometry.dimension_bounds(self.specs["SC(3,1)"])
        self.bounds = {"SC(3,1)": (sc_bounds.d_s_lower, sc_bounds.d_s_upper),
                       "MS(3,1)": self.specs["MS(3,1)"].ds_published}
        # one point per equal stratum of [-2.5, 0.8], so every seed has the same
        # mix of cheap (s > 0) and dear (s < 0) evaluations; 64 candidates
        # per stratum to step off the poles
        edges = np.linspace(-2.5, 0.8, self.ZETA_POINTS + 1)
        self.zeta_s = {name: [rng.uniform(a, b, size=64) for a, b in zip(edges, edges[1:])]
                       for name, _ in self.CARPETS}
        self.beta_crit = float(rng.uniform(0.5, 2.0))
        self.beta_gas = float(rng.uniform(0.002, 0.01))
        self.z_grid = np.sort(rng.uniform(0.02, 0.98, size=19))
        self.beta_fug = float(rng.uniform(0.3, 3.0))
        self.z_targets = np.sort(rng.uniform(0.05, 0.95, size=9))
        self.beta_bb = np.sort(rng.uniform(0.05, 0.5, size=10))
        self.beta_flat = float(rng.uniform(0.05, 0.1))
        self.plate_b = float(rng.uniform(0.8, 1.2))
        self.beta_thermal = float(rng.uniform(0.03, 0.1))
        # exact-trace boxes: one point in the continued region, one where
        # the direct sum converges (square and cube) or at a negative s
        s_int = [float(s) for s in rng.uniform(-2.5, 0.3, size=2)]
        self.box_s = {1: s_int,
                      2: [float(rng.uniform(-1.5, 0.4)), float(rng.uniform(2.5, 3.0))],
                      3: [float(rng.uniform(-1.5, 0.4)), float(rng.uniform(3.0, 3.5))]}
        self.interval_ref = {s: complex(mpmath.pi ** (-2 * s) * mpmath.zeta(2 * s))
                             for s in s_int}
        self.direct_ref = {}
        for d in (2, 3):
            box_spec = oracle.box_spectrum(oracle.unit_box(d, "dirichlet"), self.BOX_CUTOFF)
            s = self.box_s[d][1]
            self.direct_ref[d] = zeta.zeta_direct(box_spec, s, d_s=d)
        self.cli_s = float(rng.uniform(-2.0, 0.3))
        self.cli_ref = complex(mpmath.pi ** (-2 * self.cli_s) * mpmath.zeta(2 * self.cli_s))
        self.cli_ds = float(rng.uniform(1.5, 3.0))
        self.cli_beta = float(rng.uniform(0.5, 2.0))
        ms = self.spectra["MS(3,1)"]
        self.fug_targets = [thermo.particle_density(
            thermo.GasState(beta=self.beta_fug, z=float(z)), ms, v_s=1.0) for z in self.z_targets]
        self.probe_target = thermo.particle_density(
            thermo.GasState(beta=0.3, z=0.5), self.spectra["SC(3,1)"], v_s=1.0)

    def warm_up(self, rec):
        ext = zeta.build_extension(oracle.box_model(1, "dirichlet"), 0.0,
                                   lambda t: oracle.interval_trace_exact(t), t1=1.0)
        zeta.zeta_extended(ext, -0.5)
        rec.cli("warm-up", ["oracle", "selftest", "--out", str(rec.out_dir)])

    def _carpet(self, rec, name):
        spectrum, spec = self.spectra[name], self.specs[name]
        result = rec.call("observables", f"analyze {name}", trace.analyze, spectrum, spec=spec)
        if result is None:
            return None
        d_s = result["d_s"]
        lo, hi = self.bounds[name]
        rec.check(f"{name} d_s in bounds", lo <= d_s <= hi, f"{d_s}")
        curve = rec.call("observables", f"counting_ratio {name}", trace.counting_ratio, spectrum, d_s)
        got = rec.call("observables", f"dominant_log_period {name}", trace.dominant_log_period, *curve) \
            if curve is not None else None
        if got is not None:
            period, amp = got
            ok = math.isfinite(period) and period > 0 and amp > 0
            if name == "SC(3,1)":
                # the counting-function period matches log of the scale ratio
                ok = ok and rel_err(period, trace.estimate_period(spec, d_s)) < 0.15
            rec.check(f"{name} log period", ok, f"{period}")

        model = result["model"]
        t1 = min(1.0, 35.0 / (spectrum.lambda_max + 1.0))
        ext = rec.call("observables", f"build_extension {name}", zeta.build_extension, model,
                       gamma=1.0, tail=spectrum, t1=t1)
        if ext is not None:
            poles = np.array([p.location for p in ext.poles])
            points = [float(s) for stratum in self.zeta_s[name]
                      for s in stratum[np.min(np.abs(poles[:, None] - stratum), axis=0) > 0.1][:1]]
            rec.check(f"{name} zeta points", len(points) == self.ZETA_POINTS)
            for s in points:
                t0 = perf_counter()
                v = rec.call("observables", f"zeta_extended {name} {s}", zeta.zeta_extended, ext, s)
                rec.zeta_eval_s += perf_counter() - t0
                rec.zeta_evals += 1
                # conjugate towers pair up, so the value is real on the real axis
                rec.check(f"{name} zeta({s}) real", v is not None and math.isfinite(v.real)
                          and abs(v.imag) <= 1e-8 * max(1.0, abs(v.real)), f"{v}")

        crit = rec.call("observables", f"critical_densities {name}", thermo.critical_densities,
                        model, self.beta_crit)
        if crit is not None:
            if model.d_s <= 2.0:
                rec.check(f"{name} critical densities diverge", crit == (DIVERGED, DIVERGED))
            else:
                hi_c, lo_c = crit
                rec.check(f"{name} critical densities", 0 < lo_c <= hi_c, f"{crit}")

        energies = [rec.call("observables", f"blackbody {name}", thermo.blackbody, model, float(b))
                    for b in self.beta_bb]
        e = np.array([x[0] if x else np.nan for x in energies])
        rec.check(f"{name} blackbody sweep", bool(np.all(e > 0) and np.all(np.diff(e) < 0)))
        zero_t = rec.call("observables", f"casimir zero-T {name}", thermo.casimir_waveguide_zero_T,
                          model, 20.0, 1.0)
        rec.check(f"{name} casimir zero-T", zero_t is not None and zero_t[1] < 0, f"{zero_t}")
        thermal = rec.call("observables", f"casimir thermal {name}",
                           thermo.casimir_waveguide_thermal, model, 20.0, 1.0, 0.5)
        rec.check(f"{name} casimir thermal", thermal is not None and math.isfinite(thermal))
        return model

    def _gas(self, rec, ms_model):
        rho = [rec.call("observables", "particle_density sweep", thermo.particle_density,
                        thermo.GasState(beta=self.beta_gas, z=float(z)), ms_model)
               for z in self.z_grid]
        r = np.array([np.nan if x is None else x for x in rho], dtype=float)
        rec.check("density sweep increasing", bool(np.all(r > 0) and np.all(np.diff(r) > 0)))

        spectrum = self.spectra["MS(3,1)"]
        for z, target in zip(self.z_targets, self.fug_targets):
            got = rec.call("observables", "solve_fugacity", thermo.solve_fugacity, target,
                           self.beta_fug, 1.0, spectrum, v_s=1.0)
            rec.check(f"fugacity round trip z={z}", got is not None and abs(got - z) <= 1e-9,
                      f"{got}")

        energy = rec.call("observables", "blackbody flat d=3", thermo.blackbody,
                          flat_model(3.0), self.beta_flat)
        want = math.pi ** 2 / (30.0 * self.beta_flat ** 4)
        rec.check("blackbody d=3", energy is not None and rel_err(energy[0], want) < 1e-10)
        zero_t = rec.call("observables", "casimir zero-T flat d=2", thermo.casimir_waveguide_zero_T,
                          flat_model(2.0), 30.0, self.plate_b)
        want = -math.pi ** 2 / (480.0 * self.plate_b ** 4)
        rec.check("casimir zero-T square", zero_t is not None and rel_err(zero_t[1], want) < 1e-2)
        thermal = rec.call("observables", "casimir thermal flat d=2",
                           thermo.casimir_waveguide_thermal, flat_model(2.0), 30.0, self.plate_b,
                           self.beta_thermal)
        want = math.pi ** 2 / (90.0 * self.beta_thermal ** 4)
        rec.check("casimir thermal square", thermal is not None and rel_err(thermal, want) < 1e-10)

    def _boxes(self, rec):
        for d in (1, 2, 3):
            box = oracle.unit_box(d, "dirichlet")
            ext = rec.call("observables", f"build_extension box d={d}", zeta.build_extension,
                           oracle.box_model(d, "dirichlet"), 0.0,
                           lambda t, _box=box: oracle.box_trace_exact(_box, t), t1=1.0)
            if ext is None:
                continue
            for i, s in enumerate(self.box_s[d]):
                v = rec.call("observables", f"zeta box d={d} s={s}", zeta.zeta_extended, ext, s)
                if d == 1:
                    ok = v is not None and abs(v - self.interval_ref[s]) <= \
                        1e-9 * max(1.0, abs(self.interval_ref[s]))
                elif i == 1:
                    ok = v is not None and rel_err(v, self.direct_ref[d]) < (1e-5 if d == 2 else 1e-4)
                else:
                    ok = v is not None and math.isfinite(v.real) and abs(v.imag) < 1e-12
                rec.check(f"box d={d} zeta({s})", ok, f"{v}")
            if d == 1:
                energy = rec.call("observables", "casimir_energy interval", zeta.casimir_energy, ext)
                rec.check("interval casimir", energy is not None
                          and abs(energy + math.pi / 24.0) < 1e-9, f"{energy}")

    def _cli(self, rec):
        out = str(rec.out_dir)
        doc = rec.cli_json("observables", ["zeta", "eval", "--euclid", "interval",
                                           "--s", repr(self.cli_s), "--out", out])
        if rec.check("cli zeta eval", bool(doc)):
            v = complex(*doc["value"])
            rec.check("cli zeta eval value",
                      abs(v - self.cli_ref) <= 1e-9 * max(1.0, abs(self.cli_ref)), f"{v}")
        doc = rec.cli_json("observables", ["thermo", "sweep", "--ds", repr(self.cli_ds),
                                           "--beta", repr(self.cli_beta), "--out", out])
        if rec.check("cli thermo sweep", bool(doc)):
            rho = np.loadtxt(doc["artifact"], delimiter=",", skiprows=1)[:, 1]
            rec.check("cli sweep rows", doc["rows"] == 19 and rho.size == 19)
            rec.check("cli sweep increasing", bool(np.all(np.diff(rho) > 0)))
        code, text = rec.cli("observables", ["oracle", "selftest", "--out", out])
        tally = re.search(r"(\d+)/(\d+) passed", text)
        rec.check("cli oracle selftest", code == 0 and tally is not None
                  and tally.group(1) == tally.group(2), text.strip()[-80:])

    def run_pass(self, rec):
        models = {name: self._carpet(rec, name) for name, _ in self.CARPETS}
        if models["MS(3,1)"] is not None:
            self._gas(rec, models["MS(3,1)"])
        self._boxes(rec)
        self._cli(rec)

    def probes(self, rec):
        # The stored SC(3,1) level-4 zero mode is -2e-15, so the fugacity cap
        # exp(beta*E0) is below 1 and the top of the bisection bracket makes a
        # Boltzmann weight >= 1 (ROADMAP item 0).
        rec.probe(lambda: thermo.solve_fugacity(self.probe_target, 0.3, 1.0,
                                                self.spectra["SC(3,1)"], v_s=1.0) > 0)


WORKLOADS = {w.name: w for w in (ColdChain, SlicedScale, WarmObservables)}


def artifact_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
