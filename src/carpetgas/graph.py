"""Level-n approximation graphs of a carpet and their Laplacians.

Vertices are the level-n cells (lexicographic address order); edges join
cells sharing a (d-1)-face.  Diagonal contact is excluded by default but the
alternative neighborhood is available behind ``adjacency="vertex"``.

Laplacians are unnormalized (D - A).  The Dirichlet variant deletes the
rows/columns of cells touching the outer boundary of the unit cube; the
overall spectral scale is removed downstream by lambda_1 normalization.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np
# scipy.sparse loads on the first laplacian call, not with this module
import scipy

from .errors import CapExceededError, DomainError
from .geometry import CarpetSpec

_ADJACENCY = ("face", "vertex")

REFINE_CAP = 10_000_000  # most level-n cells a graph may have


@dataclass
class ApproxGraph:
    spec: CarpetSpec
    level: int
    coords: np.ndarray  # (n_vertices, d) integer grid coordinates in {0..l^n-1}
    edges: np.ndarray  # (n_edges, 2) vertex indices, i < j, lexicographic
    boundary: np.ndarray  # sorted indices of cells touching the outer boundary
    adjacency: str = "face"

    @property
    def n_vertices(self) -> int:
        return self.coords.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg


class VertexIndex:
    """Sorted raveled grid keys of the vertices (``keys``) and the vertex
    at each (``order``), for lookups in key order."""

    def __init__(self, coords: np.ndarray, side: int):
        self.shape = (side,) * coords.shape[1]
        keys = np.ravel_multi_index(coords.T, self.shape)
        self.order = np.argsort(keys)
        self.keys = keys[self.order]


def build_graph(spec: CarpetSpec, level: int, adjacency: str = "face") -> ApproxGraph:
    """Build the level-n cell graph; vertices in lexicographic address order.

    Vertex v has the address digits of v in base m (first digit slowest), so
    its coordinate is sum_k l^(level-1-k) * cell_k over the sorted mask cells.
    Neighbours are looked up once per offset in the positive half of
    {-1,0,1}^d (only the unit offsets for face adjacency), so each edge is
    found once: in the sorted raveled coordinate keys, an offset adds one
    stride to the key of every cell whose neighbour lies inside the grid.
    """
    if adjacency not in _ADJACENCY:
        raise DomainError(f"adjacency must be one of {_ADJACENCY}, got {adjacency!r}")
    if level < 1:
        raise DomainError(f"graph needs level >= 1, got {level}")
    count = spec.m**level
    if count > REFINE_CAP:
        raise CapExceededError(f"level {level} has {count} cells (cap {REFINE_CAP})")
    d, l = spec.d, spec.l
    cells = np.asarray(spec.sorted_cells(), dtype=np.int64)
    coords = np.zeros((1, d), dtype=np.int64)
    for _ in range(level):
        coords = (l * coords[:, None, :] + cells[None, :, :]).reshape(-1, d)

    side = l**level
    index = VertexIndex(coords, side)
    keys, order = index.keys, index.order
    # coordinate columns in key order: each offset's bounds test keeps the
    # needles keys + stride sorted, and no n x d neighbour array is made
    columns = np.unravel_index(keys, index.shape)
    offsets = [
        off
        for off in itertools.product((-1, 0, 1), repeat=d)
        if off > (0,) * d and (adjacency == "vertex" or sum(map(abs, off)) == 1)
    ]
    pairs = []  # edge (i, j), i < j, encoded as i * count + j
    for off in offsets:
        inside = functools.reduce(np.logical_and, (
            columns[axis] < side - 1 if step > 0 else columns[axis] > 0
            for axis, step in enumerate(off) if step))
        src = np.flatnonzero(inside)
        stride = sum(step * side ** (d - 1 - axis) for axis, step in enumerate(off))
        needles = keys[src] + stride
        pos = np.minimum(np.searchsorted(keys, needles), count - 1)
        hit = keys[pos] == needles
        a, b = order[src[hit]], order[pos[hit]]
        pairs.append(np.minimum(a, b) * count + np.maximum(a, b))
    pairs = np.concatenate(pairs)
    pairs.sort()
    edges = np.empty((pairs.size, 2), dtype=np.int64)
    np.divmod(pairs, count, out=(edges[:, 0], edges[:, 1]))

    on_boundary = np.any((coords == 0) | (coords == side - 1), axis=1)
    boundary = np.flatnonzero(on_boundary)
    return ApproxGraph(spec, level, coords, edges, boundary, adjacency)


def laplacian(graph: ApproxGraph, bc: str = "neumann") -> scipy.sparse.csr_matrix:
    """Combinatorial Laplacian; 'dirichlet' deletes outer-boundary vertices.

    The Dirichlet matrix keeps the vertices off the boundary, renumbered in
    order, and the edges between them; its diagonal is still the full-graph
    degree.  Raises DomainError when the Dirichlet deletion empties the
    matrix (all cells touch the boundary, e.g. SC(3,1) at level 1).
    """
    edges, deg = graph.edges, graph.degrees()
    if bc == "neumann":
        return _assemble(edges, deg)
    if bc == "dirichlet":
        keep = np.ones(graph.n_vertices, dtype=bool)
        keep[graph.boundary] = False
        if not keep.any():
            raise DomainError(
                "Dirichlet deletion removed every vertex; spectrum is empty "
                f"(level {graph.level} too coarse)"
            )
        renumber = np.cumsum(keep) - 1
        kept = renumber[edges[keep[edges[:, 0]] & keep[edges[:, 1]]]]
        return _assemble(kept, deg[keep])
    raise DomainError(f"bc must be 'neumann' or 'dirichlet', got {bc!r}")


def _assemble(edges: np.ndarray, deg: np.ndarray) -> scipy.sparse.csr_matrix:
    """D - A in CSR from edges (i, j), i < j, and the diagonal D; a vertex of
    degree 0 stores no diagonal entry."""
    n = deg.size
    diag = np.flatnonzero(deg)
    rows = np.concatenate([edges[:, 0], edges[:, 1], diag])
    cols = np.concatenate([edges[:, 1], edges[:, 0], diag])
    data = np.full(rows.size, -1.0)
    data[2 * edges.shape[0]:] = deg[diag]
    coo = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(n, n))
    # coo keeps int32 copies of the indices (REFINE_CAP keeps them in range);
    # dropping the int64 ones here lowers the peak while tocsr runs
    del rows, cols
    return coo.tocsr()


def degree_stats(graph: ApproxGraph) -> dict:
    deg = graph.degrees()
    counts = {int(v): int(c) for v, c in zip(*np.unique(deg, return_counts=True))}
    return {
        "min": int(deg.min()),
        "max": int(deg.max()),
        "mean": float(deg.mean()),
        "histogram": counts,
    }


def export_graph(graph: ApproxGraph, edges_path, meta_path, bc: str | None = None) -> None:
    """Edge list (one 'i j' per line) plus a JSON metadata header."""
    with open(edges_path, "w", encoding="utf-8") as fh:
        for i, j in graph.edges.tolist():
            fh.write(f"{i} {j}\n")
    meta = {
        "spec_hash": graph.spec.spec_hash(),
        "level": graph.level,
        "bc": bc,
        "adjacency": graph.adjacency,
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
        "n_boundary": int(graph.boundary.size),
        "degrees": degree_stats(graph),
    }
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
