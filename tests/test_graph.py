"""Level-n approximation graphs: counts, adjacency, Laplacians, export."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from carpetgas.errors import CapExceededError, DomainError
from carpetgas.geometry import preset, preset_names
from carpetgas.graph import (
    ApproxGraph,
    build_graph,
    degree_stats,
    export_graph,
    laplacian,
)


@pytest.fixture(scope="module")
def sc31():
    return preset("SC(3,1)")


@pytest.fixture(scope="module")
def ms31():
    return preset("MS(3,1)")


class TestBuild:
    def test_vertex_count_is_m_to_level(self, sc31, ms31):
        for spec, levels in ((sc31, (1, 2, 3)), (ms31, (1, 2))):
            for level in levels:
                g = build_graph(spec, level)
                assert g.n_vertices == spec.m**level

    def test_sc31_level1_is_a_ring(self, sc31):
        g = build_graph(sc31, 1)
        assert g.n_vertices == 8
        assert g.n_edges == 8
        assert np.all(g.degrees() == 2)
        # every cell touches the outer boundary at level 1
        assert g.boundary.size == 8

    def test_sc31_level2_counts(self, sc31):
        g = build_graph(sc31, 2)
        assert (g.n_vertices, g.n_edges, g.boundary.size) == (64, 88, 32)

    def test_coords_in_grid_and_unique(self, ms31):
        g = build_graph(ms31, 2)
        top = ms31.l**2 - 1
        assert g.coords.min() == 0 and g.coords.max() == top
        assert len({tuple(r) for r in g.coords.tolist()}) == g.n_vertices

    def test_edges_are_face_neighbors(self, sc31):
        g = build_graph(sc31, 3)
        diff = np.abs(g.coords[g.edges[:, 0]] - g.coords[g.edges[:, 1]])
        assert np.all(diff.sum(axis=1) == 1)
        assert np.all(diff.max(axis=1) == 1)

    def test_edges_sorted_without_duplicates(self, sc31):
        g = build_graph(sc31, 2)
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        as_tuples = [tuple(e) for e in g.edges.tolist()]
        assert as_tuples == sorted(set(as_tuples))

    def test_deterministic(self, ms31):
        a = build_graph(ms31, 2)
        b = build_graph(ms31, 2)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.boundary, b.boundary)

    def test_connected_at_each_level(self, sc31, ms31):
        for spec, level in ((sc31, 3), (ms31, 2)):
            g = build_graph(spec, level)
            adj = sp.coo_matrix(
                (np.ones(g.n_edges), (g.edges[:, 0], g.edges[:, 1])),
                shape=(g.n_vertices, g.n_vertices),
            )
            ncomp, _ = connected_components(adj, directed=False)
            assert ncomp == 1

    def test_vertex_adjacency_adds_diagonal_contacts(self, sc31):
        face = build_graph(sc31, 1)
        vert = build_graph(sc31, 1, adjacency="vertex")
        face_set = {tuple(e) for e in face.edges.tolist()}
        vert_set = {tuple(e) for e in vert.edges.tolist()}
        assert face_set < vert_set
        # ring plus the four diagonal contacts across the removed center
        assert len(vert_set) == 12

    def test_level_zero_rejected(self, sc31):
        with pytest.raises(DomainError):
            build_graph(sc31, 0)

    def test_bad_adjacency_rejected(self, sc31):
        with pytest.raises(DomainError):
            build_graph(sc31, 1, adjacency="queen")

    @pytest.mark.parametrize("adjacency", ["face", "vertex"])
    @pytest.mark.parametrize(
        "name,level",
        # on the 27-wide level-3 grid the key strides cross many runs of cells
        [(name, level) for level in (1, 2) for name in preset_names()]
        + [("SC(3,1)", 3), ("MS(3,1)", 3)],
    )
    def test_matches_address_reference(self, name, level, adjacency):
        spec = preset(name)
        g = build_graph(spec, level, adjacency=adjacency)
        # vertex v is the v-th address of the lexicographic product of the
        # sorted mask cells; digit k carries the weight l^(level-1-k)
        coords = np.array(
            [
                [sum(cell[i] * spec.l ** (level - 1 - k) for k, cell in enumerate(addr))
                 for i in range(spec.d)]
                for addr in itertools.product(spec.sorted_cells(), repeat=level)
            ],
            dtype=np.int64,
        )
        # every pair i < j at L1 (face) or Linf (vertex) distance 1, sorted
        norm = np.sum if adjacency == "face" else np.max
        edges = np.array(
            [
                (i, j)
                for i in range(len(coords))
                for j in i + 1 + np.flatnonzero(
                    norm(np.abs(coords[i + 1:] - coords[i]), axis=1) == 1)
            ],
            dtype=np.int64,
        )
        top = spec.l**level - 1
        assert g.coords.dtype == np.int64 and np.array_equal(g.coords, coords)
        assert g.edges.dtype == np.int64 and np.array_equal(g.edges, edges)
        assert np.array_equal(
            g.boundary, np.flatnonzero(np.any((coords == 0) | (coords == top), axis=1))
        )

    def test_cap_checked_before_allocation(self, ms31):
        # 20^6 = 6.4e7 cells: refused before any coordinate array exists
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                build_graph(ms31, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestBoundary:
    def test_boundary_cells_touch_outer_faces(self, sc31):
        g = build_graph(sc31, 2)
        top = sc31.l**2 - 1
        mask = np.any((g.coords == 0) | (g.coords == top), axis=1)
        assert np.array_equal(g.boundary, np.flatnonzero(mask))

    def test_interior_complements_boundary(self, ms31):
        g = build_graph(ms31, 2)
        top = ms31.l**2 - 1
        interior = np.flatnonzero(np.all((g.coords > 0) & (g.coords < top), axis=1))
        merged = np.sort(np.concatenate([interior, g.boundary]))
        assert np.array_equal(merged, np.arange(g.n_vertices))


class TestLaplacian:
    def test_neumann_rows_sum_to_zero(self, sc31):
        lap = laplacian(build_graph(sc31, 2))
        row_sums = np.asarray(lap.sum(axis=1)).ravel()
        assert np.allclose(row_sums, 0.0, atol=1e-14)

    def test_symmetric_and_psd(self, ms31):
        lap = laplacian(build_graph(ms31, 1)).toarray()
        assert np.array_equal(lap, lap.T)
        vals = np.linalg.eigvalsh(lap)
        assert vals[0] > -1e-12

    def test_quadratic_form_matches_edge_sum(self, sc31):
        g = build_graph(sc31, 2)
        lap = laplacian(g)
        rng = np.random.default_rng(20)
        for _ in range(5):
            f = rng.standard_normal(g.n_vertices)
            direct = np.sum((f[g.edges[:, 0]] - f[g.edges[:, 1]]) ** 2)
            assert f @ (lap @ f) == pytest.approx(direct, rel=1e-12)

    def test_dirichlet_deletes_boundary(self, sc31):
        g = build_graph(sc31, 2)
        lap = laplacian(g, bc="dirichlet")
        assert lap.shape[0] == g.n_vertices - g.boundary.size == 32

    @pytest.mark.parametrize("name", ["SC(3,1)", "MS(3,1)"])
    def test_dirichlet_is_the_neumann_submatrix(self, name):
        # the kept edges and full-graph degrees give, array for array, the
        # rows and columns of the Neumann matrix off the boundary
        g = build_graph(preset(name), 3)
        keep = np.setdiff1d(np.arange(g.n_vertices), g.boundary)
        want = laplacian(g)[keep][:, keep].tocsr()
        got = laplacian(g, bc="dirichlet")
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), attr

    def test_dirichlet_empty_interior_raises(self, sc31):
        with pytest.raises(DomainError):
            laplacian(build_graph(sc31, 1), bc="dirichlet")

    def test_dirichlet_strictly_dominates_neumann(self, sc31):
        # deleting rows/columns raises every ordered eigenvalue (Cauchy interlacing)
        g = build_graph(sc31, 2)
        neu = np.linalg.eigvalsh(laplacian(g).toarray())
        dir_ = np.linalg.eigvalsh(laplacian(g, bc="dirichlet").toarray())
        assert np.all(dir_ >= neu[: dir_.size] - 1e-12)
        assert dir_[0] > 1e-8

    def test_bad_bc_rejected(self, sc31):
        with pytest.raises(DomainError):
            laplacian(build_graph(sc31, 1), bc="robin")


class TestStatsAndExport:
    def test_degree_stats_histogram(self, sc31):
        g = build_graph(sc31, 2)
        stats = degree_stats(g)
        assert sum(stats["histogram"].values()) == g.n_vertices
        assert stats["min"] >= 1
        assert stats["max"] <= 2 * sc31.d
        assert stats["mean"] == pytest.approx(2 * g.n_edges / g.n_vertices)

    def test_export_round_trip(self, sc31, tmp_path):
        g = build_graph(sc31, 2)
        edges_path = tmp_path / "g.edges"
        meta_path = tmp_path / "g.json"
        export_graph(g, edges_path, meta_path)
        lines = edges_path.read_text().strip().splitlines()
        assert len(lines) == g.n_edges
        pairs = np.asarray([[int(t) for t in ln.split()] for ln in lines])
        assert np.array_equal(pairs, g.edges)
        meta = json.loads(meta_path.read_text())
        assert meta["n_vertices"] == g.n_vertices
        assert meta["n_boundary"] == int(g.boundary.size)
        assert "bc" not in meta
        assert meta["spec_hash"] == sc31.spec_hash()
