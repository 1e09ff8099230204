"""Full and partial eigensolvers for sparse symmetric matrices.

compute_spectrum solves a level-graph Laplacian one block at a time: one
block per class of symmetry sectors when the Laplacian is invariant under
the cube's symmetries (Serre, Linear Representations of Finite Groups,
section 8), else the whole Laplacian.  Each block is renumbered in reverse
Cuthill-McKee order (Cuthill & McKee, Reducing the bandwidth of sparse
symmetric matrices, 1969), which keeps a grid-like matrix in a narrow band,
and goes whole to LAPACK's band eigensolver, certified by the trace identity
and inverse iteration on the sparse block.  slice_spectrum solves a window
of the spectrum by inertia bisection with shift-invert Lanczos per slice,
each slice checked against its inertia difference (Parlett, The Symmetric
Eigenvalue Problem, section 3.3).  Inertia counts come from a SuperLU
factorization restricted to diagonal pivots.  Every certificate prepares
its matrix once (_Shiftable) and factors A - shift*I for each shift by
rewriting the stored diagonal in place, always in SuperLU's symmetric mode:
diagonal pivots only for an inertia count, threshold pivoting for the
stable solves of inverse iteration.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
# scipy loads a subpackage on first attribute access, so scipy.sparse
# loads on the first solve; importing Spectrum costs numpy only
import scipy

from .errors import CapExceededError, ConvergenceError, FactorizationError
from .geometry import cube_generator_images
from .graph import VertexIndex, laplacian

# Names the solver behaviour behind a spectrum; change it with any change to
# the solvers that can move cached eigenvalues.
SOLVER_VERSION = "block-band-1"
# Most band entries, (bandwidth + 1) * order floats (8 bytes each), of one
# block; the largest blocks of SC(3,1) level 6 and MS(3,1) level 4 fit.
BAND_CAP = 25_000_000
# Slice solves plus bisection refinements slice_spectrum may spend.
SLICE_BUDGET = 400
# Most eigenvalues solved as one shift-invert slice; a fuller slice is bisected.
MAX_SLICE = 256
# Downstream log-periodic extraction is sensitive to spectral noise; keep
# these in one place.
EIG_RTOL = 1e-10
RESIDUAL_RTOL = 1e-8
# Shifts below sigma, in units of the matrix scale, tried in turn while the
# factorization of A - sigma*I breaks down (see _shift_ladder).
INERTIA_STEPS = (0.0, 1e-9, 1e-6, 1e-3)
# Eigenvalues at or below this count as zero modes.
ZERO_TOL = 1e-8


@dataclass
class Spectrum:
    """Sorted eigenvalues plus the provenance needed to cache them.

    ``method`` records the route that ran: "dense" for a complete direct
    solve, "sliced" for a slice_spectrum window (oracle box spectra say
    "oracle-box").  ``blocks`` holds the (order, multiplicity) of every block
    solved; a Laplacian without the cube's symmetry is one block (n, 1).
    """

    eigenvalues: np.ndarray
    bc: str = "neumann"
    level: int = 0
    spec_hash: str = ""
    complete: bool = True
    method: str = "dense"
    blocks: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if ev.ndim != 1:
            raise ValueError("eigenvalues must be a 1-d array")
        if np.any(np.diff(ev) < 0):
            ev = np.sort(ev)
        self.eigenvalues = ev

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda_max(self) -> float:
        if self.n == 0:
            raise ValueError("empty spectrum")
        return float(self.eigenvalues[-1])

    @property
    def lambda1(self) -> float:
        """First eigenvalue above the zero threshold."""
        ev = self.eigenvalues
        above = ev[ev > ZERO_TOL]
        if above.size == 0:
            raise ValueError("no nonzero eigenvalue in spectrum")
        return float(above[0])

    @property
    def num_zero_modes(self) -> int:
        return int(np.count_nonzero(self.eigenvalues <= ZERO_TOL))


def _shift_ladder(max_abs: float, sigma: float) -> tuple[float, list[float]]:
    """The scale max(1, |sigma|, max |A_ij|) of a shift and the shifts
    sigma - step * scale, one per INERTIA_STEPS step, to try in turn while
    A - shift*I breaks down."""
    scale = max(1.0, abs(sigma), max_abs)
    return scale, [sigma - step * scale for step in INERTIA_STEPS]


class _Shiftable:
    """A square matrix prepared once for factoring A - shift*I at any shift.

    ``matrix`` is one canonical CSC working copy of A, without stored zeros
    except on the diagonal, which is stored whole (explicit zeros where A
    has none); ``diag`` holds the positions of the diagonal in its data
    array.  shifted() rewrites those entries in place, so a shift costs no
    sparse arithmetic, format conversion or reduction.
    """

    def __init__(self, matrix):
        A = scipy.sparse.csc_matrix(matrix, dtype=np.float64, copy=True)
        n = A.shape[0]
        if n != A.shape[1]:
            raise ValueError("matrix must be square")
        A.sum_duplicates()
        A.eliminate_zeros()
        self.max_abs = float(np.abs(A.data).max(initial=0.0))
        cols = np.repeat(np.arange(n), np.diff(A.indptr))
        stored = A.indices == cols
        if np.count_nonzero(stored) < n:
            missing = np.setdiff1d(np.arange(n), cols[stored])
            A = scipy.sparse.csc_matrix(
                (np.concatenate([A.data, np.zeros(missing.size)]),
                 (np.concatenate([A.indices, missing]), np.concatenate([cols, missing]))),
                shape=(n, n))
            cols = np.repeat(np.arange(n), np.diff(A.indptr))
            stored = A.indices == cols
        self.matrix = A
        self.n = n
        self.diag = np.flatnonzero(stored)
        self.diagonal = A.data[self.diag]

    def shifted(self, shift: float) -> scipy.sparse.csc_matrix:
        """The working copy, now holding A - shift*I."""
        self.matrix.data[self.diag] = self.diagonal - shift
        return self.matrix


def inertia_count(matrix: scipy.sparse.spmatrix, sigma: float) -> int:
    """Number of eigenvalues of a symmetric matrix strictly below ``sigma``.

    Sylvester's law of inertia on a SuperLU factorization of A - sigma*I in a
    symmetric fill-reducing order (minimum degree on A + A^T) with diagonal
    pivots only: then U = D L^T and the count is the number of negative
    pivots.  The factorization is trusted only when its row and column orders
    agree (every pivot came from the diagonal) and every pivot is finite and
    larger in magnitude than the rounding bound n * eps * scale, where
    scale = max(1, |sigma|, max |A_ij|).  Otherwise, also when A - sigma*I is
    exactly singular, the shift is lowered by 1e-9, then 1e-6, then 1e-3
    times the scale.  A shift on an eigenvalue breaks down this way, and
    lowering it keeps the strict count: the count is exact unless an
    eigenvalue lies in (sigma - step, sigma) for the step taken.  Raises
    FactorizationError when every shift breaks down.  ``matrix`` may be a
    _Shiftable, which callers counting at several shifts prepare once.
    """
    A = matrix if isinstance(matrix, _Shiftable) else _Shiftable(matrix)
    scale, shifts = _shift_ladder(A.max_abs, sigma)
    floor = A.n * np.finfo(np.float64).eps * scale
    for shift in shifts:
        shifted = A.shifted(shift)
        # SuperLU would pivot an exactly zero diagonal entry off the
        # diagonal, which loses the symmetric order and its sparsity.
        if not np.all(shifted.data[A.diag]):
            continue
        try:
            lu = scipy.sparse.linalg.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                                          diag_pivot_thresh=0.0,
                                          options=dict(SymmetricMode=True))
        except RuntimeError:  # exactly singular
            continue
        d = lu.U.diagonal()
        if np.array_equal(lu.perm_r, lu.perm_c) \
                and np.all(np.isfinite(d) & (np.abs(d) > floor)):
            return int(np.count_nonzero(d < 0.0))
    raise FactorizationError(
        f"inertia at sigma={float(sigma)}: factorization broke down at every "
        f"shift step {INERTIA_STEPS}"
    )


def _residual_spot_check(matrix: scipy.sparse.csr_matrix, w: np.ndarray) -> None:
    # Certify a few eigenvalues of the vector-free solve by inverse iteration
    # on the sparse matrix: two solves with B - w[idx]*I from a seeded random
    # start give a unit v, whose true residual and Rayleigh quotient must
    # both be close to w[idx].  Each shift is factored in SuperLU's symmetric
    # mode, as inertia_count does, but with threshold pivoting (a diagonal
    # pivot is kept down to 0.1 of its column's largest entry): the solve
    # must be stable, and no inertia is read off it.  A shift that is an
    # exact eigenvalue makes the factor exactly singular; it is lowered
    # along the shift ladder.
    B = _Shiftable(matrix)
    n = B.n
    norm = max(B.max_abs, 1.0) * n
    idxs = list(range(min(2, n - 1) + 1))
    if n > 3:
        idxs += [n - 2, n - 1]
    if n > 8:
        idxs += [n // 2, n // 2 + 1]
    rng = np.random.default_rng(0)
    for idx in idxs:
        for shift in _shift_ladder(B.max_abs, w[idx])[1]:
            try:
                lu = scipy.sparse.linalg.splu(B.shifted(shift), permc_spec="MMD_AT_PLUS_A",
                                              diag_pivot_thresh=0.1,
                                              options=dict(SymmetricMode=True))
                break
            except RuntimeError:  # exactly singular
                continue
        else:
            raise FactorizationError(
                f"inverse iteration at index {idx}: factorization singular at "
                f"every shift step {INERTIA_STEPS}"
            )
        v = rng.standard_normal(n)
        for _ in range(2):
            v = lu.solve(v)
            v /= np.linalg.norm(v)
        Bv = matrix @ v
        res = np.linalg.norm(Bv - w[idx] * v)
        if not res <= RESIDUAL_RTOL * norm:
            raise ConvergenceError(
                f"eigenpair residual {res:.3e} at index {idx} exceeds "
                f"{RESIDUAL_RTOL:.1e}*scale"
            )
        rayleigh = float(v @ Bv)
        if not abs(rayleigh - w[idx]) <= EIG_RTOL * norm:
            raise ConvergenceError(
                f"eigenvalue mismatch at index {idx}: {rayleigh} vs {float(w[idx])}"
            )


def _inertia_spot_check(matrix: scipy.sparse.spmatrix, w: np.ndarray) -> None:
    # Generic shifts at the widest gaps; the strict-below count there must
    # match the index exactly.  The matrix is prepared once for all counts.
    A = _Shiftable(matrix)
    gaps = np.diff(w)
    order = np.argsort(gaps)[::-1]
    checked = 0
    for idx in order:
        if gaps[idx] <= 1e-8:
            break
        sigma = 0.5 * (w[idx] + w[idx + 1])
        if inertia_count(A, sigma) != idx + 1:
            raise ConvergenceError(
                f"inertia cross-check failed at sigma={float(sigma)}"
            )
        checked += 1
        if checked >= 3:
            break
    if checked == 0:
        raise ConvergenceError("no spectral gap wide enough for inertia check")


def _check_trace(w: np.ndarray, tr: float) -> None:
    s = float(np.sum(w))
    if abs(s - tr) > RESIDUAL_RTOL * max(abs(tr), 1.0):
        raise ConvergenceError(f"trace identity violated: {s} vs {tr}")


def _rcm_lower_band(matrix: scipy.sparse.spmatrix) -> tuple[np.ndarray, ...]:
    """The lower triangle of a symmetric matrix renumbered in reverse
    Cuthill-McKee order, as (offset i - j >= 0, column j, value) of each
    stored entry; the largest offset is the bandwidth in that order."""
    A = scipy.sparse.csr_matrix(matrix)
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)
    lower = scipy.sparse.tril(A[perm][:, perm], format="coo")
    return lower.row - lower.col, lower.col, lower.data


def dense_eigenvalues(matrix: scipy.sparse.spmatrix) -> Spectrum:
    """All eigenvalues of a symmetric matrix as a Spectrum, certified by the
    trace identity and by inverse iteration on the sparse matrix.

    LAPACK's band solver runs on the lower band in reverse Cuthill-McKee
    order.  A band of more than BAND_CAP entries, (bandwidth + 1) * order,
    is refused; use slice_spectrum for a window of such a spectrum.
    """
    A = scipy.sparse.csr_matrix(matrix)
    n = A.shape[0]
    if n != A.shape[1]:
        raise ValueError("matrix must be square")
    offsets, cols, values = _rcm_lower_band(A)
    width = int(offsets.max(initial=0)) + 1
    if width * n > BAND_CAP:
        raise CapExceededError(
            f"order {n} at bandwidth {width - 1} needs {width * n} band entries "
            f"(cap {BAND_CAP})")
    # Fortran order is LAPACK's, so the band is reduced in place, not copied;
    # add.at sums duplicate stored entries as the sparse matrix does
    band = np.zeros((width, n), order="F")
    np.add.at(band, (offsets, cols), values)
    trace = float(band[0].sum())  # before the reduction overwrites it
    w = scipy.linalg.eigvals_banded(band, lower=True, overwrite_a_band=True)
    _check_trace(w, trace)
    _residual_spot_check(A, w)
    return Spectrum(eigenvalues=w, method="dense")


def _solve_slice(matrix, max_abs, lo, hi, count, rng):
    """Eigenvalues of ``matrix`` in [lo, hi), known to number ``count``.

    Shift-invert Lanczos at the slice centre, moved down the shift ladder
    when A - shift*I is exactly singular; a solve that misses part of the
    slice is repeated with more Lanczos vectors at the next shift.
    ``max_abs`` is max |A_ij|, which scales the ladder's steps.  None when
    no shift gives ``count`` eigenvalues in the slice.
    """
    n = matrix.shape[0]
    if n <= 128 or count > n - 3:
        w = np.linalg.eigvalsh(matrix.toarray())
        return w[(w >= lo) & (w < hi)]
    k = count + max(min(8, n - 2 - count), 0)
    for shift in _shift_ladder(max_abs, 0.5 * (lo + hi))[1]:
        try:
            vals = scipy.sparse.linalg.eigsh(matrix, k=k, sigma=shift, which="LM",
                                             return_eigenvectors=False,
                                             v0=rng.standard_normal(n))
        except RuntimeError:  # exactly singular
            continue
        inside = np.sort(vals[(vals >= lo) & (vals < hi)])
        if inside.size == count:
            return inside
        if k >= n - 2:
            break
        k = min(n - 2, k + count + 8)
    return None


def slice_spectrum(matrix: scipy.sparse.spmatrix, interval: tuple[float, float],
                   budget: int = SLICE_BUDGET, seed: int = 1234) -> Spectrum:
    """All eigenvalues in [a, b) by inertia bisection + shift-invert slices.

    A subinterval holding at most MAX_SLICE eigenvalues is solved as one
    slice, whose eigenvalue count is verified against the inertia
    difference; on mismatch, and above MAX_SLICE, it is bisected.  When
    ``budget`` (number of slice solves + bisection refinements) runs out,
    the result carries what was resolved and is flagged incomplete.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("need a < b")
    A = scipy.sparse.csr_matrix(matrix)
    shiftable = _Shiftable(A)  # prepared once for every count and ladder
    rng = np.random.default_rng(seed)
    scale = max(abs(a), abs(b), 1.0)
    width_floor = 1e-12 * scale

    c_a, c_b = inertia_count(shiftable, a), inertia_count(shiftable, b)
    work = [(a, b, c_a, c_b)]
    found: list[np.ndarray] = []
    spent = 0
    complete = True
    while work:
        lo, hi, clo, chi = work.pop()
        count = chi - clo
        if count == 0:
            continue
        if spent >= budget:
            complete = False
            continue
        if hi - lo <= width_floor:
            # numerically a single (multiple) eigenvalue
            found.append(np.full(count, 0.5 * (lo + hi)))
            continue
        if count <= MAX_SLICE:
            spent += 1
            got = _solve_slice(A, shiftable.max_abs, lo, hi, count, rng)
            if got is not None:
                found.append(got)
                continue
        # bisect
        spent += 1
        mid = 0.5 * (lo + hi)
        cmid = inertia_count(shiftable, mid)
        work.append((lo, mid, clo, cmid))
        work.append((mid, hi, cmid, chi))

    ev = np.sort(np.concatenate(found)) if found else np.zeros(0)
    return Spectrum(eigenvalues=ev, method="sliced", complete=complete)


def _snap_kernel(laplacian_matrix: scipy.sparse.spmatrix, ev: np.ndarray) -> None:
    """Set the Neumann kernel of a complete sorted spectrum ``ev`` to exact
    zeros, in place.

    The kernel of a graph Laplacian is spanned by the constant vectors, one
    per connected component, so its lowest k eigenvalues are exactly 0.
    Raises ConvergenceError unless exactly those k lie within ZERO_TOL.
    """
    k, _ = scipy.sparse.csgraph.connected_components(laplacian_matrix, directed=False)
    if ev.size < k or np.any(np.abs(ev[:k]) > ZERO_TOL) \
            or (ev.size > k and ev[k] <= ZERO_TOL):
        raise ConvergenceError(
            f"{k} connected components but the lowest eigenvalues "
            f"{ev[:k + 1].tolist()} do not hold exactly {k} within {ZERO_TOL:g} of 0"
        )
    ev[:k] = 0.0


def is_cube_symmetric(matrix: scipy.sparse.spmatrix, coords: np.ndarray, side: int) -> bool:
    """Whether every generator of the cube's symmetry group maps the vertex
    set onto itself and leaves ``matrix`` (rows and columns in vertex order)
    exactly unchanged.

    A generator's image keys, taken in key order as build_graph takes
    neighbours, fall in long sorted runs, so a stable sort (which merges
    runs) matches them to the sorted vertex keys and gives the vertex map p.
    The matrix is unchanged under p when row p(i) stores the entries of row
    i with every column j relabelled p(j).
    """
    A = scipy.sparse.csr_matrix(matrix, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()  # a stored zero equals an absent entry
    index = VertexIndex(coords, side)
    keys, order = index.keys, index.order
    p = np.empty(keys.size, dtype=A.indices.dtype)
    moved = A.copy()  # A with relabelled columns, refilled per generator
    for _, image in cube_generator_images(coords[order], side):
        needles = np.ravel_multi_index(image.T, index.shape)
        rank = np.argsort(needles, kind="stable")
        if not np.array_equal(needles[rank], keys):
            return False
        p[order[rank]] = order
        np.take(p, A.indices, out=moved.indices)
        moved.data[:] = A.data
        moved.has_sorted_indices = False
        moved.sort_indices()
        image_rows = A[p]
        if not (np.array_equal(image_rows.indptr, moved.indptr)
                and np.array_equal(image_rows.indices, moved.indices)
                and np.array_equal(image_rows.data, moved.data)):
            return False
    return True


def sector_basis(coords: np.ndarray, side: int, signs,
                 parity: int = 0) -> scipy.sparse.csr_matrix:
    """Sparse orthonormal basis (vertices x k) of one symmetry sector.

    ``signs[a]`` is the character (+1 or -1) of the flip of axis a.  Each
    column is the normalised signed sum over one flip orbit, that is over the
    vertices with one folded coordinate min(x, side-1-x); a vertex on the
    centre line of an axis with sign -1 lies in no column.  ``parity`` (+1 or
    -1) splits the sector further by the x_0 <-> x_1 swap, which needs
    signs[0] == signs[1]; 0 leaves it whole.  Columns are in folded-key order.
    """
    coords = np.asarray(coords, dtype=np.int64)
    n, d = coords.shape
    signs = np.asarray(signs)
    if parity and signs[0] != signs[1]:
        raise ValueError("the swap parity needs signs[0] == signs[1]")
    mirror = side - 1 - coords
    folded = np.minimum(coords, mirror)
    centre = coords == mirror
    keep = ~np.any(centre & (signs < 0), axis=1)
    value = np.prod(np.where(coords > mirror, signs, 1), axis=1) \
        / np.sqrt(2.0 ** np.count_nonzero(~centre, axis=1))
    if parity:
        pair = folded[:, 0] != folded[:, 1]
        keep &= pair | (parity > 0)
        value *= np.where(folded[:, 0] > folded[:, 1], parity, 1) \
            / np.where(pair, math.sqrt(2.0), 1.0)
        folded[:, :2] = np.sort(folded[:, :2], axis=1)
    rows = np.flatnonzero(keep)
    keys = np.ravel_multi_index(folded[rows].T, (side,) * d)
    _, cols = np.unique(keys, return_inverse=True)
    k = int(cols.max()) + 1 if cols.size else 0
    return scipy.sparse.csr_matrix((value[rows], (rows, cols)), shape=(n, k))


def symmetry_sectors(d: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(signs, parity, multiplicity) of one sector per class of isospectral
    sectors of the d-cube's symmetry group.

    Flip sign patterns with the same number k of -1 signs are related by an
    axis permutation, so their sectors share one spectrum; the class counts
    comb(d, k) of them.  Its representative has signs[0] == signs[1] where
    one exists, and is then split by the swap parity.
    """
    out = []
    for k in range(d + 1):
        signs = (-1,) * k + (1,) * (d - k) if k >= 2 else (1,) * (d - k) + (-1,) * k
        mult = math.comb(d, k)
        if signs[0] == signs[1]:
            out += [(signs, 1, mult), (signs, -1, mult)]
        else:
            out.append((signs, 0, mult))
    return out


def _symmetry_blocks(graph, bc: str, L: scipy.sparse.csr_matrix) -> list:
    """(basis, multiplicity) of each block to solve: one per class of
    isospectral symmetry sectors, or the whole matrix, [(identity, 1)], when
    the Laplacian is not invariant under the cube's symmetry group."""
    coords = graph.coords if bc == "neumann" else np.delete(graph.coords, graph.boundary, axis=0)
    side = graph.spec.l**graph.level
    if not is_cube_symmetric(L, coords, side):
        return [(scipy.sparse.identity(L.shape[0], format="csr"), 1)]
    sectors = [(sector_basis(coords, side, signs, parity), mult)
               for signs, parity, mult in symmetry_sectors(coords.shape[1])]
    return [(P, mult) for P, mult in sectors if P.shape[1]]


def compute_spectrum(graph, bc: str = "neumann") -> Spectrum:
    """Complete spectrum of the level-graph Laplacian with provenance attached.

    Each block of _symmetry_blocks is solved whole by dense_eigenvalues.  The
    merged spectrum is certified against the Laplacian (size, trace
    identity, Sylvester inertia) and carries a Neumann kernel, one mode per
    connected component, as exact zeros.
    """
    L = laplacian(graph, bc)
    parts, blocks = [], []
    for P, mult in _symmetry_blocks(graph, bc, L):
        B = (P.T @ L @ P).tocsr()
        parts.append(np.tile(dense_eigenvalues(B).eigenvalues, mult))
        blocks.append((B.shape[0], mult))
    w = np.sort(np.concatenate(parts))
    n = L.shape[0]
    if w.size != n:
        raise ConvergenceError(f"blocks hold {w.size} modes, matrix order {n}")
    _check_trace(w, float(L.diagonal().sum()))
    if n > 2:
        _inertia_spot_check(L, w)
    if bc == "neumann":
        _snap_kernel(L, w)
    return Spectrum(eigenvalues=w, bc=bc, level=graph.level,
                    spec_hash=graph.spec.spec_hash(), blocks=blocks)


def solver_settings() -> dict:
    """The solver version and tolerances a computed spectrum depends on."""
    return {
        "version": SOLVER_VERSION,
        "eig_rtol": EIG_RTOL,
        "residual_rtol": RESIDUAL_RTOL,
        "inertia_steps": list(INERTIA_STEPS),
        "zero_tol": ZERO_TOL,
    }


def save_spectrum(spectrum: Spectrum, path: str) -> None:
    """JSON cache file: header + eigenvalue list (shortest round-trip reprs)."""
    header = {
        "spec_hash": spectrum.spec_hash,
        "level": spectrum.level,
        "bc": spectrum.bc,
        "method": spectrum.method,
        "complete": spectrum.complete,
        "n": spectrum.n,
        "zero_tol": ZERO_TOL,
        "blocks": spectrum.blocks,
        "solver": solver_settings(),
    }
    payload = {"header": header, "eigenvalues": spectrum.eigenvalues.tolist()}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        # dumps runs the C encoder; dump streams through the Python one
        fh.write(json.dumps(payload))
    os.replace(tmp, path)


def load_spectrum(path: str) -> Spectrum:
    """Read a save_spectrum file; headers written before the solver settings
    and blocks were recorded load with the defaults."""
    with open(path) as fh:
        payload = json.load(fh)
    h = payload["header"]
    return Spectrum(
        eigenvalues=np.asarray(payload["eigenvalues"], dtype=np.float64),
        bc=h.get("bc", "neumann"),
        level=int(h.get("level", 0)),
        spec_hash=h.get("spec_hash", ""),
        complete=bool(h.get("complete", True)),
        method=h.get("method", "dense"),
        blocks=[tuple(b) for b in h.get("blocks", [])],
    )
