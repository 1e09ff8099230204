"""Shared fixtures: carpet presets and disk-cached level spectra.

The dense eigensolves for the larger graphs (SC(3,1) level 4, MS(3,1)
level 3) take about 1.3 s each by symmetry blocks on a 2-core box; their
spectra are cached under tests/_cache so only the first run pays.  Delete
the directory to force recomputation.
"""

from __future__ import annotations

import os

import pytest

from carpetgas import eigensolve, geometry, trace
from carpetgas.graph import build_graph

CACHE = os.path.join(os.path.dirname(__file__), "_cache")


def cached_spectrum(name: str, builder):
    os.makedirs(CACHE, exist_ok=True)
    path = os.path.join(CACHE, name + ".json")
    if os.path.exists(path):
        return eigensolve.load_spectrum(path)
    spectrum = builder()
    eigensolve.save_spectrum(spectrum, path)
    return spectrum


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
    return cached_spectrum("sc31-l2-neumann",
                           lambda: graph_spectrum("SC(3,1)", 2, "neumann"))


@pytest.fixture(scope="session")
def sc31_l3_neumann():
    return cached_spectrum("sc31-l3-neumann",
                           lambda: graph_spectrum("SC(3,1)", 3, "neumann"))


@pytest.fixture(scope="session")
def sc31_l3_dirichlet():
    return cached_spectrum("sc31-l3-dirichlet",
                           lambda: graph_spectrum("SC(3,1)", 3, "dirichlet"))


@pytest.fixture(scope="session")
def sc31_l4_neumann():
    return cached_spectrum("sc31-l4-neumann",
                           lambda: graph_spectrum("SC(3,1)", 4, "neumann"))


@pytest.fixture(scope="session")
def ms31_l2_neumann():
    return cached_spectrum("ms31-l2-neumann",
                           lambda: graph_spectrum("MS(3,1)", 2, "neumann"))


@pytest.fixture(scope="session")
def ms31_l3_neumann():
    return cached_spectrum("ms31-l3-neumann",
                           lambda: graph_spectrum("MS(3,1)", 3, "neumann"))


@pytest.fixture(scope="session")
def sc31_l4_analysis(sc31_l4_neumann, sc31_spec):
    return trace.analyze(sc31_l4_neumann, spec=sc31_spec)


@pytest.fixture(scope="session")
def ms31_l3_analysis(ms31_l3_neumann, ms31_spec):
    return trace.analyze(ms31_l3_neumann, spec=ms31_spec)
