"""Generalized Sierpinski carpet descriptions and admissibility checks.

A carpet is given by an ambient dimension d, a subdivision factor l, and a
mask: the subset of the l^d level-1 cells that are kept.  A mask is
admissible when it passes four conditions:

H1  invariance under the full symmetry group of the cube (signed
    permutations of coordinates, 2^d * d! elements), checked on its
    generators;
H2  the kept cells are face-connected and join the x_1=0 face to the
    x_1=1 face;
H3  non-diagonality: inside every 2x...x2 block of adjacent cells, the
    kept cells are face-connected (if there are any);
H4  the whole bottom edge row (i, 0, ..., 0) is kept.

Cells are plain tuples, ordered lexicographically.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import atomic_open
from .errors import InvalidCarpetError, MalformedSpecError

Cell = tuple[int, ...]


@dataclass(frozen=True)
class CarpetSpec:
    """Immutable carpet description; structural checks run at construction."""

    d: int
    l: int
    mask: frozenset[Cell]
    ds_published: tuple[float, float] | None = field(default=None, compare=False)
    ds_numeric: float | None = field(default=None, compare=False)
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.d < 2:
            raise MalformedSpecError(f"dimension must be >= 2, got {self.d}")
        if self.l < 2:
            raise MalformedSpecError(f"subdivision factor must be >= 2, got {self.l}")
        if not self.mask:
            raise MalformedSpecError("mask is empty")
        for cell in self.mask:
            if len(cell) != self.d or any(not 0 <= c < self.l for c in cell):
                raise MalformedSpecError(f"cell {cell} outside {{0..{self.l - 1}}}^{self.d}")
        if len(self.mask) >= self.l**self.d:
            raise MalformedSpecError("mask keeps every cell; carpet must be a proper subset")

    @property
    def m(self) -> int:
        return len(self.mask)

    @property
    def d_h(self) -> float:
        """Hausdorff dimension log m / log l."""
        return math.log(self.m) / math.log(self.l)

    def sorted_cells(self) -> list[Cell]:
        return sorted(self.mask)

    def spec_hash(self) -> str:
        return hashlib.sha256(format_spec_text(self).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ValidationReport:
    h1: bool
    h2: bool
    h3: bool
    h4: bool
    details: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.h1 and self.h2 and self.h3 and self.h4

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "H1_symmetry": self.h1,
            "H2_connected": self.h2,
            "H3_nondiagonal": self.h3,
            "H4_border": self.h4,
            "details": list(self.details),
        }


def cube_generator_images(coords: np.ndarray, side: int):
    """(name, image) for each generator of the symmetry group of the cube
    [0, side-1]^d, applied to integer coordinate rows: every axis flip
    x_a -> side-1-x_a, the x_0 <-> x_1 swap and, for d >= 3, the cyclic axis
    shift.  The swap and the shift generate every axis permutation, so
    together with the flips they generate all 2^d * d! signed
    permutations."""
    d = coords.shape[1]
    for a in range(d):
        image = coords.copy()
        image[:, a] = side - 1 - image[:, a]
        yield f"flip of axis {a}", image
    yield "x_0 <-> x_1 swap", coords[:, [1, 0, *range(2, d)]]
    if d >= 3:
        yield "cyclic axis shift", coords[:, [*range(1, d), 0]]


def _face_adjacency(cells: set[Cell]) -> dict[Cell, list[Cell]]:
    adj: dict[Cell, list[Cell]] = {c: [] for c in cells}
    for c in cells:
        for i in range(len(c)):
            for step in (-1, 1):
                nb = c[:i] + (c[i] + step,) + c[i + 1 :]
                if nb in cells:
                    adj[c].append(nb)
    return adj


def _connected(cells: set[Cell]) -> bool:
    if not cells:
        return True
    adj = _face_adjacency(cells)
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


def validate_spec(spec: CarpetSpec) -> ValidationReport:
    """Check H1-H4; structural problems raise at CarpetSpec construction."""
    details = []
    mask = set(spec.mask)

    h1 = True
    for name, image in cube_generator_images(np.array(sorted(mask)), spec.l):
        if set(map(tuple, image.tolist())) != mask:
            h1 = False
            details.append(f"H1: mask not invariant under the {name}")
            break

    h2 = _connected(mask)
    if not h2:
        details.append("H2: kept cells are not face-connected")
    else:
        has_low = any(c[0] == 0 for c in mask)
        has_high = any(c[0] == spec.l - 1 for c in mask)
        if not (has_low and has_high):
            h2 = False
            details.append("H2: no kept cells on both x1-faces")

    h3 = True
    for corner in itertools.product(range(spec.l - 1), repeat=spec.d):
        block = {
            tuple(a + e for a, e in zip(corner, offs))
            for offs in itertools.product((0, 1), repeat=spec.d)
        }
        kept = block & mask
        if kept and not _connected(kept):
            h3 = False
            details.append(f"H3: block at {corner} has disconnected kept cells")
            break

    h4 = all((i,) + (0,) * (spec.d - 1) in mask for i in range(spec.l))
    if not h4:
        details.append("H4: bottom edge row not fully kept")

    return ValidationReport(h1, h2, h3, h4, tuple(details))


@dataclass(frozen=True)
class DimensionBounds:
    d_h: float
    rho_lower: float
    rho_upper: float
    d_s_lower: float
    d_s_upper: float
    d_w_lower: float
    d_w_upper: float

    def as_dict(self) -> dict:
        return {
            "d_h": self.d_h,
            "rho": [self.rho_lower, self.rho_upper],
            "d_s": [self.d_s_lower, self.d_s_upper],
            "d_w": [self.d_w_lower, self.d_w_upper],
        }


def dimension_bounds(spec: CarpetSpec, check: bool = True) -> DimensionBounds:
    """Hausdorff dimension and resistance-based bounds on d_s and d_w.

    The generic resistance window is l^2/m <= rho <= 2^(1-d) l.  Presets may
    carry sharper published intervals for d_s (resistance estimates from
    Barlow & Bass 1999); these are intersected with the generic window.
    """
    if check:
        report = validate_spec(spec)
        if not report.ok:
            raise InvalidCarpetError("; ".join(report.details) or "carpet fails H1-H4")
    m, l, d = spec.m, spec.l, spec.d
    log_m, log_l = math.log(m), math.log(l)

    rm_lo = (l**2 / m) * m  # = l^2
    rm_hi = 2.0 ** (1 - d) * l * m
    if spec.ds_published is not None:
        ds_lo_pub, ds_up_pub = spec.ds_published
        rm_lo = max(rm_lo, m ** (2.0 / ds_up_pub))
        rm_hi = min(rm_hi, m ** (2.0 / ds_lo_pub))
    if rm_lo > rm_hi:
        raise InvalidCarpetError("empty resistance window; bounds inconsistent")

    d_s_lower = 2.0 * log_m / math.log(rm_hi)
    d_s_upper = 2.0 * log_m / math.log(rm_lo)
    return DimensionBounds(
        d_h=spec.d_h,
        rho_lower=rm_lo / m,
        rho_upper=rm_hi / m,
        d_s_lower=d_s_lower,
        d_s_upper=d_s_upper,
        d_w_lower=math.log(rm_lo) / log_l,
        d_w_upper=math.log(rm_hi) / log_l,
    )


# ---------------------------------------------------------------------------
# Presets


def _central_band_mask(d: int, l: int, width: int) -> frozenset[Cell]:
    """Keep cells with at most one coordinate in the centered band of given width."""
    if (l - width) % 2 != 0 or not 0 < width < l:
        raise MalformedSpecError(f"band width {width} incompatible with l={l}")
    lo = (l - width) // 2
    band = range(lo, lo + width)
    kept = [
        cell
        for cell in itertools.product(range(l), repeat=d)
        if sum(1 for c in cell if c in band) <= 1
    ]
    return frozenset(kept)


_PRESETS: dict[str, dict] = {
    "SC(3,1)": dict(d=2, l=3, width=1),
    "MS(3,1)": dict(d=3, l=3, width=1, ds_published=(2.21, 2.60), ds_numeric=2.51),
    "MS(4,2)": dict(d=3, l=4, width=2, ds_published=(2.00, 2.26)),
    "MS(5,3)": dict(d=3, l=5, width=3, ds_published=(1.89, 2.07), ds_numeric=2.01),
    "MS(6,4)": dict(d=3, l=6, width=4, ds_published=(1.82, 1.95)),
}


def preset_names() -> list[str]:
    return list(_PRESETS)


def normalize_preset_name(name: str) -> str:
    key = "".join(ch for ch in name.upper() if ch.isalnum())
    for canonical in _PRESETS:
        if "".join(ch for ch in canonical if ch.isalnum()) == key:
            return canonical
    raise KeyError(f"unknown preset {name!r}; known: {', '.join(_PRESETS)}")


def preset(name: str) -> CarpetSpec:
    canonical = normalize_preset_name(name)
    cfg = _PRESETS[canonical]
    return CarpetSpec(
        d=cfg["d"],
        l=cfg["l"],
        mask=_central_band_mask(cfg["d"], cfg["l"], cfg["width"]),
        ds_published=cfg.get("ds_published"),
        ds_numeric=cfg.get("ds_numeric"),
        name=canonical,
    )


# ---------------------------------------------------------------------------
# Text format: dimension=, length_scale=, then mask= followed by l^(d-1) rows
# of l characters.  Row q encodes coordinates (c_2..c_d) by base-l digits of q
# with c_2 fastest; column position is c_1.  '1' keeps a cell.


def format_spec_text(spec: CarpetSpec) -> str:
    lines = [f"dimension={spec.d}", f"length_scale={spec.l}", "mask="]
    for q in range(spec.l ** (spec.d - 1)):
        rest, digits = q, []
        for _ in range(spec.d - 1):
            rest, digit = divmod(rest, spec.l)
            digits.append(digit)
        row = "".join(
            "1" if (c1, *digits) in spec.mask else "0" for c1 in range(spec.l)
        )
        lines.append(row)
    return "\n".join(lines) + "\n"


def parse_spec_text(text: str) -> CarpetSpec:
    fields: dict[str, str] = {}
    rows: list[str] = []
    in_mask = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_mask:
            rows.append(line)
        elif line == "mask=":
            in_mask = True
        elif "=" in line:
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
        else:
            raise MalformedSpecError(f"unexpected line {raw!r}")
    try:
        d = int(fields["dimension"])
        l = int(fields["length_scale"])
    except (KeyError, ValueError) as exc:
        raise MalformedSpecError(f"missing or bad header field: {exc}") from exc
    if d < 2 or l < 2:
        raise MalformedSpecError(f"bad dimension={d} or length_scale={l}")
    if len(rows) != l ** (d - 1):
        raise MalformedSpecError(f"expected {l ** (d - 1)} mask rows, got {len(rows)}")
    cells = set()
    for q, row in enumerate(rows):
        if len(row) != l or any(ch not in "01" for ch in row):
            raise MalformedSpecError(f"mask row {q}: {row!r} is not {l} chars of 0/1")
        rest, digits = q, []
        for _ in range(d - 1):
            rest, digit = divmod(rest, l)
            digits.append(digit)
        for c1, ch in enumerate(row):
            if ch == "1":
                cells.add((c1, *digits))
    return CarpetSpec(d=d, l=l, mask=frozenset(cells))


def load_spec(path) -> CarpetSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_spec_text(fh.read())


def save_spec(spec: CarpetSpec, path) -> None:
    with atomic_open(path) as fh:
        fh.write(format_spec_text(spec))
