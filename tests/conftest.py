"""Shared fixtures: carpet presets and level spectra.

Each spectrum fixture is computed once per session by compute_spectrum, so
the tests always run on what the current solver gives.  The largest (SC(3,1)
level 4, MS(3,1) level 3) take about half a second each by symmetry blocks
on a 2-core box.  Two stored spectra, the benchmark's SC(3,1) level-4 and
MS(3,1) level-3 references, are read from perfbench/data because their
ground modes were rounded to -1.96e-15 and +1.78e-14, which compute_spectrum
(kernel snapped to exact zeros) never returns.
"""

from __future__ import annotations

import os

import pytest

from carpetgas import eigensolve, geometry, trace
from carpetgas.graph import build_graph


def graph_spectrum(preset_name: str, level: int, bc: str):
    spec = geometry.preset(preset_name)
    g = build_graph(spec, level)
    return eigensolve.compute_spectrum(g, bc=bc)


@pytest.fixture(scope="session")
def sc31_spec():
    return geometry.preset("SC(3,1)")


@pytest.fixture(scope="session")
def ms31_spec():
    return geometry.preset("MS(3,1)")


@pytest.fixture(scope="session")
def sc31_l2_neumann():
    return graph_spectrum("SC(3,1)", 2, "neumann")


@pytest.fixture(scope="session")
def sc31_l3_neumann():
    return graph_spectrum("SC(3,1)", 3, "neumann")


@pytest.fixture(scope="session")
def sc31_l3_dirichlet():
    return graph_spectrum("SC(3,1)", 3, "dirichlet")


@pytest.fixture(scope="session")
def sc31_l4_neumann():
    return graph_spectrum("SC(3,1)", 4, "neumann")


@pytest.fixture(scope="session")
def ms31_l2_neumann():
    return graph_spectrum("MS(3,1)", 2, "neumann")


@pytest.fixture(scope="session")
def ms31_l3_neumann():
    return graph_spectrum("MS(3,1)", 3, "neumann")


def stored_spectrum(name: str):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return eigensolve.load_spectrum(os.path.join(root, "perfbench", "data", name))


@pytest.fixture(scope="session")
def stored_sc31_l4_neumann():
    return stored_spectrum("sc31-l4-neumann.json")


@pytest.fixture(scope="session")
def stored_ms31_l3_neumann():
    return stored_spectrum("ms31-l3-neumann.json")


@pytest.fixture(scope="session")
def sc31_l4_analysis(sc31_l4_neumann, sc31_spec):
    return trace.analyze(sc31_l4_neumann, spec=sc31_spec)


@pytest.fixture(scope="session")
def ms31_l3_analysis(ms31_l3_neumann, ms31_spec):
    return trace.analyze(ms31_l3_neumann, spec=ms31_spec)
