"""Pipeline driver: stages, artifacts, caching, config, error reporting."""

import argparse
import csv
import glob
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import carpetgas
from carpetgas import cli, eigensolve, geometry, trace
from carpetgas.cli import CACHE_ENV, _model_key, _spectrum_key, build_parser, main
from carpetgas.graph import build_graph


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cache = tmp_path / "cache"
    monkeypatch.setenv(CACHE_ENV, str(cache))
    return out


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured


def run_json(capsys, *args):
    code, captured = run(capsys, *args)
    assert code == 0, captured.err
    return json.loads(captured.out)


def seed_spectrum_cache(cache_dir, spec, level, spectrum):
    """Place a spectrum where the pipeline's default-keyed lookup expects it."""
    key = _spectrum_key(spec, level, "neumann")
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"spectrum-{key}.json")
    eigensolve.save_spectrum(spectrum, path)
    return path


class TestCarpetStage:
    def test_info_lists_presets(self, capsys):
        payload = run_json(capsys, "carpet", "info")
        rows = {r["name"]: r for r in payload["presets"]}
        assert set(rows) == set(geometry.preset_names())
        assert rows["SC(3,1)"]["m"] == 8
        assert rows["MS(3,1)"]["m"] == 20
        assert rows["MS(6,4)"]["m"] == 56
        assert rows["MS(4,2)"]["d_h"] == pytest.approx(2.5, rel=1e-12)

    def test_info_single_carpet(self, capsys):
        payload = run_json(capsys, "carpet", "info", "--preset", "SC(3,1)")
        assert payload["stage"] == "carpet-info"
        assert "cells" in payload["text"] or payload["text"]
        dims = payload["dimensions"]
        assert dims["d_s"][0] <= dims["d_s"][1]

    def test_validate_writes_artifact(self, capsys, workdir):
        payload = run_json(capsys, "carpet", "validate", "--preset", "MS(3,1)",
                           "--out", workdir)
        assert payload["validation"]["ok"] is True
        assert payload["m"] == 20
        with open(payload["artifact"]) as fh:
            on_disk = json.load(fh)
        assert on_disk["spec_hash"] == payload["spec_hash"]

    def test_unknown_preset_reports_json_error(self, capsys):
        code, captured = run(capsys, "carpet", "info", "--preset", "NOPE")
        assert code == 1
        err = json.loads(captured.err)
        assert "NOPE" in err["message"]
        assert err["error"]


class TestGraphStage:
    def test_build_then_cache_hit(self, capsys, workdir):
        args = ("graph", "build", "--preset", "SC(3,1)", "--level", 2,
                "--out", workdir)
        first = run_json(capsys, *args)
        assert first["cached"] is False
        assert first["n_vertices"] == 64
        assert first["n_edges"] == 88
        blobs = {p: open(p, "rb").read() for p in (first["edges"], first["meta"])}
        second = run_json(capsys, *args)
        assert second["cached"] is True
        for path, blob in blobs.items():
            with open(path, "rb") as fh:
                assert fh.read() == blob

    def test_level_required(self, capsys):
        code, captured = run(capsys, "graph", "build", "--preset", "SC(3,1)")
        assert code == 1
        assert "--level" in json.loads(captured.err)["message"]


class TestSpectrumStage:
    def test_compute_and_cache_flag(self, capsys, workdir):
        args = ("spectrum", "compute", "--preset", "SC(3,1)", "--level", 2,
                "--out", workdir)
        first = run_json(capsys, *args)
        assert first["cached"] is False
        assert first["n"] == 64
        assert first["bc"] == "neumann"
        assert first["num_zero_modes"] == 1
        assert first["blocks"] == [[10, 1], [8, 1], [16, 2], [8, 1], [6, 1]]
        second = run_json(capsys, *args)
        assert second["cached"] is True
        assert second["lambda_max"] == first["lambda_max"]
        assert second["blocks"] == first["blocks"]

    @pytest.mark.parametrize("name,value", [("SOLVER_VERSION", "other"),
                                            ("EIG_RTOL", 1e-11),
                                            ("INERTIA_STEPS", (0.0, 1e-9)),
                                            ("ZERO_TOL", 1e-9)])
    def test_solver_settings_key_the_cache(self, monkeypatch, sc31_spec, name,
                                           value):
        key = _spectrum_key(sc31_spec, 3, "neumann")
        monkeypatch.setattr(eigensolve, name, value)
        assert _spectrum_key(sc31_spec, 3, "neumann") != key

    def test_analysis_version_keys_the_model_cache(self, monkeypatch, sc31_spec):
        key = _model_key(sc31_spec, 4, "neumann", 4096, 5, "0" * 64)
        monkeypatch.setattr(trace, "ANALYSIS_VERSION", "other")
        assert _model_key(sc31_spec, 4, "neumann", 4096, 5, "0" * 64) != key

    def test_preseeded_cache_is_found(self, capsys, workdir, sc31_spec,
                                      sc31_l3_neumann):
        cache = os.environ[CACHE_ENV]
        seed_spectrum_cache(cache, sc31_spec, 3, sc31_l3_neumann)
        payload = run_json(capsys, "spectrum", "compute", "--preset", "SC(3,1)",
                           "--level", 3, "--out", workdir)
        assert payload["cached"] is True
        assert payload["n"] == 512


class TestTraceStage:
    def test_analyze_artifacts(self, capsys, workdir, sc31_spec,
                               sc31_l4_neumann):
        # level 4 so the fitted window covers >= 2 log-periods
        seed_spectrum_cache(os.environ[CACHE_ENV], sc31_spec, 4,
                            sc31_l4_neumann)
        payload = run_json(capsys, "trace", "analyze", "--preset", "SC(3,1)",
                           "--level", 4, "--out", workdir)
        assert payload["spectrum_cached"] is True
        assert 1.2 < payload["d_s"] < 2.2
        # the counting function's own period agrees with the cell-count law
        assert abs(payload["counting_period_ratio"] - 1.0) < 0.15

        with open(payload["weyl_csv"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 1000
        s = [float(r["s"]) for r in rows]
        assert s == sorted(s)
        assert all(float(r["W"]) > 0 for r in rows)

        with open(payload["ghat_csv"]) as fh:
            ghat = list(csv.DictReader(fh))
        assert {(int(r["k"]), int(r["p"])) for r in ghat} >= {(0, 0), (0, 1)}

        with open(payload["weyl_plot"]) as fh:
            script = fh.read()
        assert "matplotlib" in script
        assert os.path.basename(payload["weyl_csv"]) in script
        assert os.path.exists(payload["model"])

    def test_p_max_zero_keeps_only_the_mean_term(self, capsys, workdir,
                                                 sc31_spec, sc31_l4_neumann):
        seed_spectrum_cache(os.environ[CACHE_ENV], sc31_spec, 4,
                            sc31_l4_neumann)
        payload = run_json(capsys, "trace", "analyze", "--preset", "SC(3,1)",
                           "--level", 4, "--p-max", 0, "--out", workdir)
        with open(payload["ghat_csv"]) as fh:
            ghat = list(csv.DictReader(fh))
        assert [(int(r["k"]), int(r["p"])) for r in ghat] == [(0, 0)]

    def test_rejected_d_s_prints_a_plain_float(self, capsys, workdir):
        # the fitted Dirichlet d_s of SC(3,1) level 3 lies above d = 2
        code, captured = run(capsys, "trace", "analyze", "--preset", "SC(3,1)",
                             "--level", 3, "--bc", "dirichlet", "--out", workdir)
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == "DomainError"
        assert re.fullmatch(r"d_s=2\.\d+ outside \(0, 2\]", err["message"]), err["message"]


class TestModelCache:
    def test_consumers_read_the_model_back(self, capsys, workdir, sc31_spec,
                                           sc31_l4_neumann, monkeypatch):
        cache = os.environ[CACHE_ENV]
        seed_spectrum_cache(cache, sc31_spec, 4, sc31_l4_neumann)
        args = ("--preset", "SC(3,1)", "--level", 4, "--out", workdir)
        poles = run_json(capsys, "zeta", "poles", *args)
        with open(poles["artifact"], "rb") as fh:
            table = fh.read()
        [model_path] = glob.glob(os.path.join(cache, "model-*.json"))
        os.remove(model_path)
        analysed = run_json(capsys, "thermo", "bec", *args)
        assert analysed.pop("model_cached") is False
        assert analysed["model_artifact"] == model_path

        def no_analysis(*_args, **_kwargs):
            raise AssertionError("the model cache was not read")

        monkeypatch.setattr(trace, "analyze", no_analysis)
        loaded = run_json(capsys, "thermo", "bec", *args)
        assert loaded.pop("model_cached") is True
        assert loaded == analysed
        assert run_json(capsys, "zeta", "poles", *args) == poles
        with open(poles["artifact"], "rb") as fh:
            assert fh.read() == table

    def test_model_keyed_on_spectrum_bytes(self, capsys, workdir, sc31_spec,
                                           sc31_l4_neumann):
        cache = os.environ[CACHE_ENV]
        path = seed_spectrum_cache(cache, sc31_spec, 4, sc31_l4_neumann)
        args = ("--preset", "SC(3,1)", "--level", 4, "--out", workdir)
        first = run_json(capsys, "thermo", "bec", *args)
        changed = eigensolve.Spectrum(sc31_l4_neumann.eigenvalues * 1.5)
        eigensolve.save_spectrum(changed, path)
        second = run_json(capsys, "thermo", "bec", *args)
        assert second["model_cached"] is False
        assert second["model_artifact"] != first["model_artifact"]


class TestZetaStage:
    def test_eval_interval_negative_half(self, capsys, workdir):
        payload = run_json(capsys, "zeta", "eval", "--euclid", "interval",
                           "--s", "-0.5", "--out", workdir)
        value = complex(*payload["value"])
        assert value.real == pytest.approx(-math.pi / 12.0, rel=1e-9)
        assert abs(value.imag) < 1e-12
        assert payload["error_bound"] < 1e-9
        with open(payload["artifact"]) as fh:
            header = fh.readline().strip()
        assert header == "re_s,im_s,re_value,im_value,error_bound"

    def test_poles_export(self, capsys, workdir):
        payload = run_json(capsys, "zeta", "poles", "--euclid", "interval",
                           "--out", workdir)
        assert payload["n_poles"] > 0
        assert [0, 0] in payload["towers"]
        with open(payload["artifact"], "rb") as fh:
            raw = fh.read()
        assert b"\r" not in raw and raw.endswith(b"\n")
        header, *rows = raw.decode().splitlines()
        assert header == "k,p,n,re_location,im_location,re_residue,im_residue"
        assert len(rows) == payload["n_poles"]
        towers = set()
        for row in rows:
            k, p, n, *values = row.split(",")
            towers.add((int(k), int(p)))
            assert int(n) >= 0
            assert len([float(v) for v in values]) == 4
        assert sorted(towers) == [tuple(t) for t in payload["towers"]]

    def test_casimir_value_and_gamma_guard(self, capsys, workdir):
        payload = run_json(capsys, "zeta", "casimir", "--euclid", "interval",
                           "--out", workdir)
        assert payload["energy"] == pytest.approx(-math.pi / 24.0, rel=1e-9)
        code, captured = run(capsys, "zeta", "casimir", "--euclid", "interval",
                             "--gamma", "0.5", "--out", workdir)
        assert code == 1
        assert "gamma" in json.loads(captured.err)["message"]


class TestThermoStage:
    def test_bec_verdict_without_spectrum(self, capsys, workdir):
        payload = run_json(capsys, "thermo", "bec", "--preset", "MS(6,4)",
                           "--out", workdir)
        assert payload["verdict"] == "no"
        assert payload["d_s_fitted"] is None
        assert os.path.exists(payload["artifact"])

    def test_blackbody_flat_three_dimensions(self, capsys):
        beta = 0.05
        payload = run_json(capsys, "thermo", "blackbody", "--ds", 3,
                           "--beta", beta)
        want = math.pi**2 / (30.0 * beta**4)
        assert payload["energy_density"] == pytest.approx(want, rel=1e-10)
        assert payload["pressure"] == pytest.approx(want / 3.0, rel=1e-10)

    def test_casimir_reports_both_polarization_counts(self, capsys):
        payload = run_json(capsys, "thermo", "casimir", "--ds", 2,
                           "--a", 30, "--b", 1)
        assert payload["pressure_scalar"] == pytest.approx(
            -math.pi**2 / 480.0, rel=1e-10)
        assert payload["pressure_em"] == pytest.approx(
            2.0 * payload["pressure_scalar"], rel=1e-14)
        assert "polarization" in payload["note"]

    def test_casimir_thermal_branch(self, capsys):
        beta = 0.05
        payload = run_json(capsys, "thermo", "casimir", "--ds", 2,
                           "--a", 30, "--b", 1, "--beta", beta)
        assert payload["pressure_thermal"] == pytest.approx(
            math.pi**2 / (90.0 * beta**4), rel=1e-10)

    def test_density_sweep(self, capsys, workdir):
        payload = run_json(capsys, "thermo", "sweep", "--ds", 2.5,
                           "--quantity", "density", "--beta", 0.005,
                           "--grid", "0.1:0.9:5", "--out", workdir)
        assert payload["rows"] == 5
        assert payload["rows_in_window"] == 5
        with open(payload["artifact"]) as fh:
            rows = list(csv.DictReader(fh))
        dens = [float(r["density"]) for r in rows]
        assert len(dens) == 5
        assert dens == sorted(dens)
        # L^2/beta = 200 lies inside the massive window on every row
        assert list(rows[0]) == ["z", "density", "in_window"]
        assert [r["in_window"] for r in rows] == ["1"] * 5

    def test_blackbody_sweep_flags_rows_outside_the_window(self, capsys, workdir):
        with pytest.warns(UserWarning, match="below the asymptotic window"):
            payload = run_json(capsys, "thermo", "sweep", "--ds", 3,
                               "--quantity", "blackbody", "--out", workdir)
        assert payload["rows"] == 10
        with open(payload["artifact"]) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["beta", "energy_density", "pressure", "in_window"]
        # L/beta >= 10 only at beta = 0.05 and 0.1 of the default grid
        assert [r["in_window"] for r in rows].count("0") == 8
        assert payload["rows_in_window"] == 2

    def test_reused_parser_carries_no_value_between_calls(self, capsys,
                                                          workdir, tmp_path):
        assert build_parser() is build_parser()
        sweep = ("thermo", "sweep", "--ds", 2.5)
        with pytest.warns(UserWarning, match="below the asymptotic window"):
            half = run_json(capsys, *sweep, "--beta", 0.5, "--out", workdir)
            default = run_json(capsys, *sweep, "--out", workdir)
            explicit = run_json(capsys, *sweep, "--beta", 1,
                                "--out", tmp_path / "explicit")
        # the default beta = 1 gives L^2/beta = 1, outside the massive window
        assert default["rows"] == 19
        assert default["rows_in_window"] == 0
        name = os.path.basename(default["artifact"])
        assert name == os.path.basename(explicit["artifact"])
        assert name != os.path.basename(half["artifact"])
        texts = []
        for payload in (default, explicit, half):
            with open(payload["artifact"]) as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1] != texts[2]

    @pytest.mark.parametrize("args", [
        ("thermo", "blackbody", "--ds", 3, "--beta", 0),
        ("thermo", "casimir", "--ds", 2, "--a", 0, "--b", 1),
        ("zeta", "eval", "--euclid", "interval", "--s", "-0.5", "--t1", 0),
    ], ids=["blackbody-beta", "casimir-a", "zeta-t1"])
    def test_explicit_zero_is_honoured(self, capsys, workdir, args):
        code, captured = run(capsys, *args, "--out", workdir)
        assert code == 1
        assert json.loads(captured.err)["error"] == "DomainError"

    @pytest.mark.parametrize("args,config,code,error", [
        (("thermo", "blackbody", "--ds", 3, "--beta", "nan"), None, 2, None),
        (("thermo", "casimir", "--ds", 2, "--a", "inf"), None, 2, None),
        (("thermo", "sweep", "--ds", 2, "--beta", "nan"), None, 2, None),
        (("thermo", "blackbody", "--ds", 3, "--beta", "abc"), None, 2, None),
        (("zeta", "eval", "--euclid", "interval", "--s", "nan"), None, 1,
         "ValueError"),
        (("zeta", "eval", "--euclid", "interval", "--s", "1+infj"), None, 1,
         "ValueError"),
        (("thermo", "sweep", "--ds", 2, "--grid", "0.1:nan:3"), None, 1,
         "CarpetGasError"),
        (("thermo", "blackbody", "--ds", 3), '{"beta": NaN}', 1, "CarpetGasError"),
        (("thermo", "blackbody", "--ds", 3), '{"beta": 1e999}', 1, "CarpetGasError"),
        (("thermo", "blackbody", "--ds", 3), '{"beta": "abc"}', 1, "CarpetGasError"),
    ], ids=["blackbody-beta", "casimir-a", "sweep-beta", "beta-abc", "zeta-s",
            "zeta-s-complex", "sweep-grid", "config-nan", "config-overflow",
            "config-abc"])
    def test_non_finite_number_rejected(self, capsys, tmp_path, args, config,
                                        code, error):
        # nan and inf fail where option text becomes a number, as "abc" does
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(config)
            args += ("--config", cfg)
        args += ("--out", tmp_path / "out")
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                main([str(a) for a in args])
            assert exc.value.code == 2
            assert "invalid float value" in capsys.readouterr().err
        else:
            got, captured = run(capsys, *args)
            assert got == 1 and captured.out == ""
            assert json.loads(captured.err)["error"] == error
        assert not (tmp_path / "out").exists()

    def test_bad_grid_rejected(self, capsys):
        code, captured = run(capsys, "thermo", "sweep", "--ds", 2.5,
                             "--grid", "oops")
        assert code == 1
        assert "lo:hi:n" in json.loads(captured.err)["message"]


class TestOracleStage:
    def test_selftest_passes(self, capsys):
        code, captured = run(capsys, "oracle", "selftest")
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[-1].endswith("8/8 passed")
        assert all(line.startswith("ok") for line in lines[:-1])


class TestConfig:
    def test_config_fills_and_flags_win(self, capsys, workdir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "SC(3,1)", "level": 3}))
        payload = run_json(capsys, "spectrum", "compute", "--config", cfg,
                           "--level", 2, "--out", workdir)
        assert payload["n"] == 64  # CLI --level, not the config's 3

    def test_config_value_goes_through_the_flag_type(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"beta": "0.05"}))
        from_config = run_json(capsys, "thermo", "blackbody", "--ds", 3,
                               "--config", cfg)
        from_flag = run_json(capsys, "thermo", "blackbody", "--ds", 3,
                             "--beta", 0.05)
        assert from_config == from_flag

    def test_config_zero_is_honoured(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"beta": 0}))
        code, captured = run(capsys, "thermo", "blackbody", "--ds", 3,
                             "--config", cfg)
        assert code == 1
        assert json.loads(captured.err)["error"] == "DomainError"

    @pytest.mark.parametrize("values", [{"euclid": "torus"},
                                        {"bc": "bogus"},
                                        {"level": "3.5"}])
    def test_config_value_checked_like_its_flag(self, capsys, tmp_path,
                                                values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, captured = run(capsys, "thermo", "blackbody", "--ds", 3,
                             "--config", cfg)
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == "CarpetGasError"
        assert "--" + next(iter(values)) in err["message"]

    def test_config_must_be_object(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        code, captured = run(capsys, "carpet", "info", "--config", cfg)
        assert code == 1
        assert "JSON object" in json.loads(captured.err)["message"]


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_subcommand_keeps_its_flags():
    common = {"--preset", "--spec", "--level", "--bc", "--out", "--config"}
    chain = {"--p-max"}
    zeta = chain | {"--euclid", "--gamma", "--t1", "--nmax"}
    thermo = chain | {"--euclid", "--ds", "--beta"}
    want = {
        ("carpet", "validate"): set(),
        ("carpet", "info"): set(),
        ("graph", "build"): {"--adjacency"},
        ("spectrum", "compute"): set(),
        ("trace", "analyze"): chain,
        ("zeta", "eval"): zeta | {"--s"},
        ("zeta", "poles"): zeta,
        ("zeta", "casimir"): zeta,
        ("thermo", "bec"): chain | {"--beta"},
        ("thermo", "blackbody"): thermo | {"--length"},
        ("thermo", "casimir"): thermo | {"--a", "--b"},
        ("thermo", "sweep"): thermo | {"--quantity", "--grid"},
        ("oracle", "selftest"): set(),
    }
    got = {}
    for stage, stage_parser in _subparsers(build_parser()).items():
        for action, sub in _subparsers(stage_parser).items():
            got[stage, action] = {flag for a in sub._actions
                                  for flag in a.option_strings} - {"-h", "--help"}
    assert got == {key: flags | common for key, flags in want.items()}


def test_main_looks_the_stage_handler_up_at_call_time(monkeypatch):
    # a tracer that rebinds cmd_* on the module then sees each stage run
    calls = []
    monkeypatch.setattr(cli, "cmd_carpet_info",
                        lambda ns: calls.append((ns.stage, ns.action)) or 7)
    assert main(["carpet", "info"]) == 7
    assert calls == [("carpet", "info")]


def _source_tree_env(tmp_path):
    """Environment for a child interpreter that imports this carpetgas."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(carpetgas.__file__)))
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, **{CACHE_ENV: str(tmp_path / "cache"),
                               "PYTHONPATH": pythonpath})


def test_cli_import_leaves_scipy_signal_out(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, carpetgas.cli; print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True, env=_source_tree_env(tmp_path),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fugacity_and_heat_trace_leave_scipy_optimize_and_special_out(tmp_path):
    # either would cost warm-observables more peak RSS than its bound allows
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, numpy as np; "
         "from carpetgas import thermo, trace; "
         "from carpetgas.eigensolve import Spectrum; "
         "spec = Spectrum(eigenvalues=np.linspace(0.0, 8.0, 200)); "
         "thermo.solve_fugacity(50.0, 1.0, 1.0, spec, v_s=1.0); "
         "trace.heat_trace(spec, trace.log_grid(1e-2, 1e2, 50)); "
         "print(*(m in sys.modules for m in ('scipy.optimize', 'scipy.special')))"],
        capture_output=True, text=True, env=_source_tree_env(tmp_path),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def test_package_import_leaves_scipy_sparse_out(tmp_path):
    # the solver's scipy.linalg and scipy.sparse.csgraph load on first use too
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, carpetgas, carpetgas.cli; "
         "print(*(m in sys.modules for m in ('scipy.sparse', 'scipy.linalg', "
         "'scipy.sparse.csgraph')))"],
        capture_output=True, text=True, env=_source_tree_env(tmp_path),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False False"


# Run a stage the way the pip-generated launcher does, then report whether
# scipy.sparse was loaded on the way.
_LAUNCH_AND_REPORT = ("import sys; from carpetgas.cli import main; code = main(); "
                      "print('scipy.sparse' in sys.modules); sys.exit(code)")


@pytest.mark.parametrize("args", [
    ("zeta", "eval", "--euclid", "interval", "--s", "-0.5"),
    ("thermo", "sweep", "--ds", "2.5"),
    ("trace", "analyze", "--preset", "SC(3,1)", "--level", "4"),
], ids=["zeta-eval", "thermo-sweep", "trace-analyze"])
def test_warm_stage_leaves_scipy_sparse_out(tmp_path, sc31_spec,
                                            sc31_l4_neumann, args):
    env = _source_tree_env(tmp_path)
    seed_spectrum_cache(env[CACHE_ENV], sc31_spec, 4, sc31_l4_neumann)
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH_AND_REPORT, *args,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_spectrum_compute_loads_the_solver_out_of_process(tmp_path, sc31_spec):
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH_AND_REPORT, "spectrum", "compute",
         "--preset", "SC(3,1)", "--level", "2", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_source_tree_env(tmp_path),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    *lines, loaded = proc.stdout.splitlines()
    assert loaded == "True"
    payload = json.loads("\n".join(lines))
    assert payload["cached"] is False
    got = eigensolve.load_spectrum(payload["artifact"]).eigenvalues
    want = eigensolve.compute_spectrum(build_graph(sc31_spec, 2)).eigenvalues
    assert got.tobytes() == want.tobytes()


@pytest.mark.skipif(shutil.which("carpetgas") is None,
                    reason="needs the pip-installed console script")
def test_console_script_round_trip(tmp_path):
    env = dict(os.environ, **{CACHE_ENV: str(tmp_path / "cache")})
    proc = subprocess.run(
        ["carpetgas", "carpet", "validate", "--preset", "SC(3,1)",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["validation"]["ok"] is True


def test_declared_entry_point_runs_out_of_process(tmp_path):
    # Run the [project.scripts] target out of process the way the
    # pip-generated launcher does, so no install is needed.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["carpetgas"]
    assert target == "carpetgas.cli:main"
    module, func = target.split(":")
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "carpet", "validate",
         "--preset", "SC(3,1)", "--out", str(tmp_path)],
        capture_output=True, text=True, env=_source_tree_env(tmp_path),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["validation"]["ok"] is True
