"""Eigensolvers: the banded block route and slices against LAPACK's dense
solver, symmetry sectors, inertia counts, caching."""

import hashlib
import itertools
import json
import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from carpetgas import eigensolve, thermo, trace, zeta
from carpetgas.eigensolve import (
    Spectrum,
    _rcm_lower_band,
    _symmetry_blocks,
    compute_spectrum,
    dense_eigenvalues,
    inertia_count,
    load_spectrum,
    save_spectrum,
    sector_basis,
    slice_spectrum,
    solver_settings,
)
from carpetgas.errors import CapExceededError, ConvergenceError, FactorizationError
from carpetgas.geometry import CarpetSpec, preset, preset_names, validate_spec
from carpetgas.graph import build_graph, laplacian


def random_sparse_symmetric(n, seed, shift=0.0, density=0.05):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    vals = rng.standard_normal((n, n)) * mask
    a = vals + vals.T
    a[np.diag_indices(n)] += rng.standard_normal(n) - shift
    return sp.csr_matrix(a)


@pytest.fixture(scope="module")
def sc31_l2_lap():
    return laplacian(build_graph(preset("SC(3,1)"), 2))


@pytest.fixture(scope="module")
def sc31_l3_lap():
    return laplacian(build_graph(preset("SC(3,1)"), 3))


class TestSpectrum:
    def test_sorts_on_construction(self):
        s = Spectrum(eigenvalues=np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(s.eigenvalues, [1.0, 2.0, 3.0])

    def test_basic_properties(self):
        s = Spectrum(eigenvalues=np.array([0.0, 5e-9, 0.5, 2.0]))
        assert s.n == 4
        assert s.lambda_max == 2.0
        # entries at or below ZERO_TOL count as zero modes
        assert s.num_zero_modes == 2
        assert s.lambda1 == 0.5

    def test_lambda1_requires_nonzero_entry(self):
        s = Spectrum(eigenvalues=np.zeros(3))
        with pytest.raises(ValueError):
            s.lambda1

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            Spectrum(eigenvalues=np.zeros((2, 2)))

    def test_modes_read_the_kernel_as_exact_zeros(self):
        ev = np.array([-3e-15, 0.0, 1.8e-14, 1e-8, 2e-8, 0.5])
        s = Spectrum(eigenvalues=ev)
        assert s.modes.tolist() == [0.0, 0.0, 0.0, 0.0, 2e-8, 0.5]
        assert np.array_equal(s.eigenvalues, ev)   # kept as given
        assert s.num_zero_modes == np.count_nonzero(s.modes == 0.0)


def kernel_observables(spectrum, spec):
    """Every value a spectrum's kernel can reach, across trace, thermo and zeta."""
    n = spectrum.n
    targets = (trace.FIT_WINDOW[1] * n, trace.FIT_WINDOW[0],
               trace.FOURIER_WINDOW[1] * n, trace.FOURIER_WINDOW[0])
    analysis = trace.analyze(spectrum, spec=spec)
    ext = zeta.build_extension(analysis["model"], None, spectrum)
    densities = [thermo.particle_density(thermo.GasState(beta=1.0, z=z), spectrum, v_s=1.0)
                 for z in (1e-3, 0.5, 0.99)]
    return {
        "windows": [trace.t_at_trace(spectrum, target) for target in targets],
        "K": trace.heat_trace(spectrum, trace.log_grid(1e-3, 1e3, 100)).K.tolist(),
        "d_s": analysis["d_s"],
        "terms": [(t.k, t.p, t.exponent, t.coefficient) for t in analysis["model"].terms],
        "cap": thermo.max_fugacity(spectrum, thermo.GasState(beta=1.0, z=0.5, L=1.0)),
        "densities": densities,
        "fugacities": [thermo.solve_fugacity(rho, 1.0, 1.0, spectrum, v_s=1.0)
                       for rho in densities],
        "blackbody": [thermo.blackbody_spectrum(spectrum, beta, 1.0, 1.0)
                      for beta in (0.5, 1.0)],
        "casimir": zeta.casimir_energy(spectrum),
        "zeta": [zeta.zeta_extended(ext, s) for s in (-1.3, 0.4)],
    }


class TestKernelRule:
    """A kernel mode rounded to either side of zero reads as exactly 0 in
    every consumer, so no observable depends on the sign of that noise."""

    @pytest.fixture(scope="class")
    def exact(self, ms31_l3_neumann, ms31_spec):
        assert ms31_l3_neumann.eigenvalues[0] == 0.0
        return kernel_observables(ms31_l3_neumann, ms31_spec)

    @pytest.mark.parametrize("ground", [0.0, -2e-15, 1.8e-14])
    def test_observables_ignore_kernel_noise(self, ms31_l3_neumann, ms31_spec, exact,
                                             ground):
        ev = ms31_l3_neumann.eigenvalues.copy()
        ev[0] = ground
        got = kernel_observables(Spectrum(eigenvalues=ev), ms31_spec)
        assert got["cap"] == 1.0
        for key, want in exact.items():
            assert got[key] == want, key


class TestDense:
    def test_laplacian_trace_identity(self, sc31_l2_lap):
        spec = dense_eigenvalues(sc31_l2_lap)
        assert spec.n == 64
        # trace of D - A equals twice the edge count
        assert np.sum(spec.eigenvalues) == pytest.approx(2 * 88, rel=1e-12)

    def test_connected_neumann_has_one_zero_mode(self, sc31_l2_lap):
        spec = dense_eigenvalues(sc31_l2_lap)
        assert spec.num_zero_modes == 1

    def test_cap_refused(self, sc31_l2_lap, monkeypatch):
        offsets, _, _ = _rcm_lower_band(sc31_l2_lap)
        entries = (int(offsets.max()) + 1) * 64
        monkeypatch.setattr(eigensolve, "BAND_CAP", entries)
        assert dense_eigenvalues(sc31_l2_lap).n == 64
        monkeypatch.setattr(eigensolve, "BAND_CAP", entries - 1)
        with pytest.raises(CapExceededError, match="band entries"):
            dense_eigenvalues(sc31_l2_lap)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_lapack_dense_on_indefinite_matrices(self, seed):
        # a random pattern keeps a wide band in any order
        m = random_sparse_symmetric(150, seed=seed, shift=0.3)
        want = np.linalg.eigvalsh(m.toarray())
        got = dense_eigenvalues(m).eigenvalues
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_disconnected_matrix_in_dense_input(self):
        # reverse Cuthill-McKee orders each connected component in turn
        a = np.kron(np.eye(3), [[2.0, -1.0], [-1.0, 2.0]])
        np.testing.assert_allclose(dense_eigenvalues(a).eigenvalues,
                                   [1.0] * 3 + [3.0] * 3, rtol=0, atol=1e-14)

    def test_exact_eigenvalue_shifts_lower_along_the_ladder(self):
        # every checked shift is an exact eigenvalue, so each first factor
        # of B - w[idx] I is exactly singular
        spec = dense_eigenvalues(sp.diags(np.arange(20.0)))
        np.testing.assert_array_equal(spec.eigenvalues, np.arange(20.0))

    def test_trace_preserving_perturbation_rejected(self, sc31_l2_lap, monkeypatch):
        eigvals_banded = scipy.linalg.eigvals_banded

        def moved(*args, **kwargs):
            w = eigvals_banded(*args, **kwargs)
            w[1] += 1e-3
            w[-1] -= 1e-3
            return w

        monkeypatch.setattr(scipy.linalg, "eigvals_banded", moved)
        with pytest.raises(ConvergenceError, match="residual"):
            dense_eigenvalues(sc31_l2_lap)

    def test_lowest_eigenvalue_perturbation_rejected(self, sc31_l2_lap, monkeypatch):
        eigvals_banded = scipy.linalg.eigvals_banded

        def moved(*args, **kwargs):
            w = eigvals_banded(*args, **kwargs)
            w[0] += 1e-3
            return w

        monkeypatch.setattr(scipy.linalg, "eigvals_banded", moved)
        with pytest.raises(ConvergenceError):
            dense_eigenvalues(sc31_l2_lap)


class TestInertia:
    def test_random_shifts_match_dense_counts(self, sc31_l2_lap):
        w = np.linalg.eigvalsh(sc31_l2_lap.toarray())
        rng = np.random.default_rng(7)
        for _ in range(100):
            sigma = rng.uniform(-1.0, w[-1] + 1.0)
            expect = int(np.count_nonzero(w < sigma))
            assert inertia_count(sc31_l2_lap, sigma) == expect

    def test_one_shot_helper(self, sc31_l2_lap):
        w = np.linalg.eigvalsh(sc31_l2_lap.toarray())
        sigma = 0.5 * (w[10] + w[11])
        assert inertia_count(sc31_l2_lap, sigma) == 11

    def test_indefinite_matrix(self):
        m = random_sparse_symmetric(150, seed=3, shift=0.5)
        w = np.linalg.eigvalsh(m.toarray())
        rng = np.random.default_rng(11)
        for _ in range(25):
            sigma = rng.uniform(w[0] - 0.5, w[-1] + 0.5)
            assert inertia_count(m, sigma) == int(np.count_nonzero(w < sigma))

    @pytest.mark.parametrize("name", ["SC(3,1)", "MS(3,1)"])
    def test_integer_shifts_match_dense_strict_counts(self, name):
        # Integer shifts land on eigenvalues (the Neumann kernel, multiple
        # eigenvalues) and on Laplacian diagonals; the count stays strict.
        lap = laplacian(build_graph(preset(name), 2))
        w = np.linalg.eigvalsh(lap.toarray())
        for sigma in range(int(np.ceil(w[-1])) + 2):
            expect = int(np.count_nonzero(w < sigma - 1e-9))
            assert inertia_count(lap, float(sigma)) == expect, sigma

    def test_off_diagonal_pivot_goes_through_retry(self, sc31_l2_lap):
        # At sigma = 1 elimination meets an exactly zero pivot, which SuperLU
        # replaces by an off-diagonal one; that factorization is not used.
        shifted = sp.csc_matrix(sc31_l2_lap - sp.identity(64))
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        assert not np.array_equal(lu.perm_r, lu.perm_c)
        w = np.linalg.eigvalsh(sc31_l2_lap.toarray())
        assert inertia_count(sc31_l2_lap, 1.0) == int(np.count_nonzero(w < 1.0 - 1e-9))

    def test_breakdown_at_every_shift_raises(self):
        with pytest.raises(FactorizationError):
            inertia_count(sp.diags([1.0, np.nan, 2.0]), 0.5)

    def test_isolated_vertex_without_a_stored_diagonal(self, sc31_l2_lap):
        # a vertex of degree 0 stores no diagonal entry; the prepared matrix
        # stores an explicit zero there, which each shift rewrites
        lap = sp.block_diag([sc31_l2_lap, sp.csr_matrix((1, 1))], format="csr")
        assert lap.diagonal()[-1] == 0.0 and lap[64].nnz == 0
        w = np.linalg.eigvalsh(lap.toarray())
        assert np.count_nonzero(np.abs(w) < 1e-12) == 2
        for sigma in (-0.5, 0.0, 1e-3, 0.5 * (w[10] + w[11]), 3.0, float(w[-1]) + 1.0):
            assert inertia_count(lap, sigma) == int(np.count_nonzero(w < sigma - 1e-9)), sigma
        got = dense_eigenvalues(lap).eigenvalues
        assert np.max(np.abs(got - w)) <= 1e-12 * w[-1]


class TestSliceSpectrum:
    def test_matches_dense_on_carpet(self, sc31_l3_lap):
        dense = np.linalg.eigvalsh(sc31_l3_lap.toarray())
        # degree <= 4, so every eigenvalue lies in [0, 8]
        sliced = slice_spectrum(sc31_l3_lap, (-1e-9, 9.0), budget=400)
        assert sliced.complete
        assert sliced.n == dense.size
        scale = max(abs(dense[0]), abs(dense[-1]), 1.0)
        assert np.max(np.abs(sliced.eigenvalues - dense)) < 1e-10 * scale

    def test_window_restriction(self, sc31_l3_lap):
        dense = np.linalg.eigvalsh(sc31_l3_lap.toarray())
        window = (2.0, 5.0)
        sliced = slice_spectrum(sc31_l3_lap, window, budget=200)
        ref = dense[(dense >= window[0]) & (dense < window[1])]
        assert sliced.complete
        assert sliced.n == ref.size
        assert np.max(np.abs(sliced.eigenvalues - ref)) < 1e-10 * dense[-1]

    def test_random_indefinite_matrices(self):
        for seed in (1, 2, 3):
            m = random_sparse_symmetric(200, seed=seed, shift=0.3)
            dense = np.linalg.eigvalsh(m.toarray())
            sliced = slice_spectrum(m, (dense[0] - 1.0, dense[-1] + 1.0),
                                    budget=300, seed=seed)
            assert sliced.complete, f"seed {seed}"
            scale = max(abs(dense[0]), abs(dense[-1]))
            assert np.max(np.abs(sliced.eigenvalues - dense)) < 1e-10 * scale

    def test_budget_exhaustion_flags_incomplete(self, sc31_l3_lap):
        sliced = slice_spectrum(sc31_l3_lap, (-1e-9, 9.0), budget=1)
        assert not sliced.complete

    def test_slice_centred_on_an_eigenvalue(self, monkeypatch):
        # the first shift, 10, makes A - shift*I exactly singular; eigsh
        # raises and the slice moves one step down the shift ladder, in
        # units of max |A_ij| = 199
        calls = self._log_eigsh(monkeypatch)
        sliced = slice_spectrum(sp.diags(np.arange(200.0)), (9.5, 10.5))
        assert sliced.complete
        np.testing.assert_array_equal(sliced.eigenvalues, [10.0])
        assert [c["sigma"] for c in calls] == [10.0, 10.0 - 1e-9 * 199.0]

    @staticmethod
    def _log_eigsh(monkeypatch):
        # keyword arguments of every eigsh call, logged before it runs
        calls = []
        eigsh = spla.eigsh

        def logged(*args, **kwargs):
            calls.append(kwargs)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", logged)
        return calls

    @staticmethod
    def _bottom_window(ref, modes):
        # lowest ~modes eigenvalues, cut in the widest gap within 5 modes
        top = modes - 5 + int(np.argmax(np.diff(ref[modes - 6:modes + 5])))
        return top, (-0.5 * ref[1], 0.5 * (ref[top - 1] + ref[top]))

    def test_max_slice_window_is_one_solve(self, sc31_l4_neumann, monkeypatch):
        ref = sc31_l4_neumann.eigenvalues
        top, window = self._bottom_window(ref, 128)
        calls = self._log_eigsh(monkeypatch)
        sliced = slice_spectrum(laplacian(build_graph(preset("SC(3,1)"), 4)), window)
        assert sliced.complete and sliced.n == top == 128
        assert len(calls) == 1
        assert np.max(np.abs(sliced.eigenvalues - ref[:top])) < 1e-10 * ref[-1]

    def test_wider_window_bisects(self, sc31_l4_neumann, monkeypatch):
        ref = sc31_l4_neumann.eigenvalues
        top, window = self._bottom_window(ref, 300)
        calls = self._log_eigsh(monkeypatch)
        sliced = slice_spectrum(laplacian(build_graph(preset("SC(3,1)"), 4)), window)
        assert sliced.complete and sliced.n == top > eigensolve.MAX_SLICE
        assert len(calls) >= 2
        assert np.max(np.abs(sliced.eigenvalues - ref[:top])) < 1e-10 * ref[-1]

    def test_empty_interval_rejected(self, sc31_l3_lap):
        with pytest.raises(ValueError):
            slice_spectrum(sc31_l3_lap, (2.0, 2.0))


class TestComputeSpectrum:
    def test_provenance_attached(self):
        spec = preset("SC(3,1)")
        g = build_graph(spec, 2)
        s = compute_spectrum(g, bc="neumann")
        assert s.method == "dense"
        assert s.bc == "neumann"
        assert s.level == 2
        assert s.spec_hash == spec.spec_hash()
        assert s.n == 64

    def test_one_dense_solve_per_block(self, monkeypatch):
        # the certificate must not re-solve a block: one eigvals_banded call
        # per symmetry block and no dense solve at all
        calls = {"eigvals_banded": 0, "eigvalsh": 0, "eigh": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(scipy.linalg, "eigvals_banded")
        counted(np.linalg, "eigvalsh")
        counted(scipy.linalg, "eigh")
        spec = compute_spectrum(build_graph(preset("SC(3,1)"), 3), "neumann")
        assert len(spec.blocks) == 5
        assert calls == {"eigvals_banded": 5, "eigvalsh": 0, "eigh": 0}

    def test_certificate_work_is_pinned(self, monkeypatch):
        # SC(3,1) L3 Neumann: 5 blocks x 7 inverse-iteration factors plus 3
        # whole-Laplacian inertia counts, each matrix prepared once
        splu = spla.splu
        factored, prepared = [], []

        def counted(*args, **kwargs):
            factored.append(kwargs.get("diag_pivot_thresh"))
            return splu(*args, **kwargs)

        class Counted(eigensolve._Shiftable):
            def __init__(self, matrix):
                prepared.append(matrix.shape[0])
                super().__init__(matrix)

        monkeypatch.setattr(spla, "splu", counted)
        monkeypatch.setattr(eigensolve, "_Shiftable", Counted)
        spec = compute_spectrum(build_graph(preset("SC(3,1)"), 3), "neumann")
        assert spec.blocks == [(68, 1), (64, 1), (128, 2), (64, 1), (60, 1)]
        assert factored == [0.1] * 35 + [0.0] * 3
        assert prepared == [68, 64, 128, 64, 60, 512]

    def test_block_moved_across_a_gap_rejected(self, monkeypatch):
        # one eigenvalue of a block moved up across the widest gap, the rest
        # of the block moved down to keep the trace: the block's own checks
        # are past, and the inertia cross-check on the Laplacian must fail
        g = build_graph(preset("SC(3,1)"), 3)
        w = compute_spectrum(g).eigenvalues
        k = int(np.argmax(np.diff(w)))
        below, gap = w[k], w[k + 1] - w[k]
        solve = eigensolve.dense_eigenvalues

        def moved(matrix):
            spec = solve(matrix)
            ev = spec.eigenvalues
            hit = np.flatnonzero(np.abs(ev - below) <= 1e-12 * w[-1])
            if hit.size:
                step = 0.75 * gap
                ev[hit[0]] += step
                others = np.arange(ev.size) != hit[0]
                ev[others] -= step / (ev.size - 1)
            return Spectrum(eigenvalues=ev, method=spec.method)

        monkeypatch.setattr(eigensolve, "dense_eigenvalues", moved)
        with pytest.raises(ConvergenceError, match="inertia cross-check"):
            compute_spectrum(g)

    def test_wrong_block_multiplicity_rejected(self, monkeypatch):
        # one copy too many of the first block: the merged spectrum has more
        # modes than the Laplacian has rows
        blocks = eigensolve._symmetry_blocks

        def miscounted(graph, bc):
            got = blocks(graph, bc)
            got[0] = (got[0][0], got[0][1] + 1)
            return got

        monkeypatch.setattr(eigensolve, "_symmetry_blocks", miscounted)
        with pytest.raises(ConvergenceError, match="blocks hold 580 modes, matrix order 512"):
            compute_spectrum(build_graph(preset("SC(3,1)"), 3))

    def test_neumann_kernel_is_exact_zero(self):
        s = compute_spectrum(build_graph(preset("MS(3,1)"), 2), bc="neumann")
        assert s.eigenvalues[0] == 0.0
        assert s.num_zero_modes == 1


SECTOR_CASES = ([(name, level, "neumann") for name in preset_names() for level in (1, 2)]
                + [("SC(3,1)", 3, "neumann"), ("SC(3,1)", 3, "dirichlet"),
                   ("MS(3,1)", 2, "dirichlet")])


class TestSymmetrySectors:
    @pytest.mark.parametrize("adjacency", ["face", "vertex"])
    @pytest.mark.parametrize("name,level,bc", SECTOR_CASES,
                             ids=[f"{n}-L{lv}-{bc}" for n, lv, bc in SECTOR_CASES])
    def test_reduced_path_matches_whole_matrix(self, name, level, bc, adjacency):
        g = build_graph(preset(name), level, adjacency)
        got = compute_spectrum(g, bc=bc)
        want = np.linalg.eigvalsh(laplacian(g, bc).toarray())
        assert got.blocks
        assert sum(order * mult for order, mult in got.blocks) == want.size
        assert got.n == want.size
        assert np.max(np.abs(got.eigenvalues - want)) <= 1e-12 * want[-1]

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("broken", ["flip", "cycle"])
    def test_asymmetric_mask_falls_back(self, broken, bc):
        if broken == "flip":
            # SC(3,1) without the corner cell (2, 2): no axis flip keeps it
            spec = CarpetSpec(d=2, l=3, mask=frozenset(preset("SC(3,1)").mask - {(2, 2)}))
        else:
            # two slabs x_2 in {0, 2}: every flip and the x_0 <-> x_1 swap
            # keep it, the cyclic axis shift does not
            spec = CarpetSpec(d=3, l=3, mask=frozenset(
                c for c in itertools.product(range(3), repeat=3) if c[2] != 1))
        assert not validate_spec(spec).h1
        g = build_graph(spec, 3 if spec.d == 2 else 2)
        L = laplacian(g, bc)
        got = compute_spectrum(g, bc=bc)
        assert got.method == "dense" and got.blocks == [(L.shape[0], 1)]
        want = np.linalg.eigvalsh(L.toarray())
        assert np.max(np.abs(got.eigenvalues - want)) <= 1e-12 * want[-1]

    def test_mixed_sign_sectors_are_isospectral(self):
        g = build_graph(preset("SC(3,1)"), 3)
        L = laplacian(g)
        spectra = []
        for signs in ((-1, 1), (1, -1)):
            P = sector_basis(g.coords, 27, signs)
            assert abs(P.T @ P - sp.identity(P.shape[1])).max() < 1e-14
            spectra.append(np.linalg.eigvalsh((P.T @ L @ P).toarray()))
        assert spectra[0].size == spectra[1].size > 0
        assert np.max(np.abs(spectra[0] - spectra[1])) <= 1e-12 * spectra[0][-1]

    @pytest.mark.parametrize("name,level", [("SC(3,1)", 6), ("MS(3,1)", 4)])
    def test_band_cap_admits_every_block(self, name, level):
        # block set-up and ordering only, no solve: the north-star levels
        # are solved whole
        g = build_graph(preset(name), level)
        L = laplacian(g)
        blocks = _symmetry_blocks(g, "neumann")
        assert sum(P.shape[1] * mult for P, mult in blocks) == g.n_vertices
        for P, _ in blocks:
            B = (P.T @ L @ P).tocsr()
            offsets, _, _ = _rcm_lower_band(B)
            assert (int(offsets.max()) + 1) * B.shape[0] <= eigensolve.BAND_CAP


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        src = Spectrum(
            eigenvalues=np.array([0.0, 0.25, 1.0 / 3.0, 7.125]),
            bc="dirichlet",
            level=3,
            spec_hash="abc123",
            complete=False,
            method="sliced",
        )
        path = str(tmp_path / "spec.json")
        save_spectrum(src, path)
        got = load_spectrum(path)
        assert np.array_equal(got.eigenvalues, src.eigenvalues)
        assert got.bc == "dirichlet"
        assert got.level == 3
        assert got.spec_hash == "abc123"
        assert got.complete is False
        assert got.method == "sliced"
        assert got.blocks == []

    def test_file_bytes_are_pinned(self, tmp_path):
        # the CLI keys its model cache on the sha256 of these bytes, so a
        # change of the writer must not move them
        src = Spectrum(eigenvalues=np.array([0.0, 0.25, 1.0 / 3.0, 5e-324, 7.125e300]),
                       bc="dirichlet", level=3, spec_hash="abc123", complete=False,
                       method="sliced", blocks=[(2, 1), (3, 1)])
        path = tmp_path / "spec.json"
        save_spectrum(src, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "7e209f897e1557809114429073fa56ea7fffa940be21e21d333c3218c1d1789a")

    def test_blocks_and_solver_settings_recorded(self, tmp_path):
        spectrum = compute_spectrum(build_graph(preset("SC(3,1)"), 2))
        path = str(tmp_path / "spec.json")
        save_spectrum(spectrum, path)
        with open(path) as fh:
            header = json.load(fh)["header"]
        assert header["solver"] == solver_settings()
        assert header["blocks"] == [[10, 1], [8, 1], [16, 2], [8, 1], [6, 1]]
        assert load_spectrum(path).blocks == spectrum.blocks

    def test_reads_headers_without_solver_settings(self, tmp_path):
        # the header fields of files written before the solver settings and
        # blocks were recorded
        header = {"spec_hash": "abc123", "level": 2, "bc": "neumann",
                  "method": "dense", "complete": True, "interval": None, "n": 3}
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"header": header,
                                    "eigenvalues": [0.0, 1.0, 3.0]}))
        got = load_spectrum(str(path))
        assert np.array_equal(got.eigenvalues, [0.0, 1.0, 3.0])
        assert got.blocks == []
        assert got.num_zero_modes == 1

    @pytest.mark.parametrize("name", ["sc31-l4-neumann", "ms31-l3-neumann",
                                      "sc31-l3-dirichlet", "ms31-l2-neumann"])
    def test_reads_the_benchmark_reference_spectra(self, request, name):
        # written by an earlier solver: no blocks or solver settings, and
        # "interval": null; the current route agrees to 1e-13 * lambda_max
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                            "data", f"{name}.json")
        got = load_spectrum(path)
        want = request.getfixturevalue(name.replace("-", "_"))
        assert (got.bc, got.level, got.n) == (want.bc, want.level, want.n)
        assert got.blocks == [] and got.complete
        assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) <= 1e-13 * want.lambda_max
