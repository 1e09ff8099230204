import itertools
import math
import random

import numpy as np
import pytest

from carpetgas.errors import InvalidCarpetError, MalformedSpecError
from carpetgas.geometry import (
    CarpetSpec,
    dimension_bounds,
    format_spec_text,
    load_spec,
    normalize_preset_name,
    parse_spec_text,
    preset,
    preset_names,
    save_spec,
    validate_spec,
)
from carpetgas.graph import build_graph


def _sc31_mask():
    return frozenset((i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1))


class TestSpecConstruction:
    def test_basic_fields(self):
        spec = CarpetSpec(d=2, l=3, mask=_sc31_mask())
        assert spec.m == 8
        assert len(spec.sorted_cells()) == 8
        assert spec.sorted_cells() == sorted(spec.mask)

    def test_rejects_structural_garbage(self):
        with pytest.raises(MalformedSpecError):
            CarpetSpec(d=1, l=3, mask=frozenset({(0,)}))
        with pytest.raises(MalformedSpecError):
            CarpetSpec(d=2, l=1, mask=frozenset({(0, 0)}))
        with pytest.raises(MalformedSpecError):
            CarpetSpec(d=2, l=3, mask=frozenset())
        with pytest.raises(MalformedSpecError):
            CarpetSpec(d=2, l=3, mask=frozenset({(0, 5)}))
        full = frozenset((i, j) for i in range(3) for j in range(3))
        with pytest.raises(MalformedSpecError):
            CarpetSpec(d=2, l=3, mask=full)

    def test_hash_stable_and_mask_sensitive(self):
        a = CarpetSpec(d=2, l=3, mask=_sc31_mask())
        b = CarpetSpec(d=2, l=3, mask=_sc31_mask())
        assert a.spec_hash() == b.spec_hash()
        other = frozenset((i, j) for i in range(3) for j in range(3) if (i, j) != (1, 0))
        c = CarpetSpec(d=2, l=3, mask=other)
        assert a.spec_hash() != c.spec_hash()


class TestValidation:
    def test_presets_all_admissible(self):
        for name in preset_names():
            report = validate_spec(preset(name))
            assert report.ok, f"{name}: {report.details}"

    @pytest.mark.parametrize("mask,generator", [
        # SC(3,1) without the corner cell (2, 2): no axis flip keeps it
        (preset("SC(3,1)").mask - {(2, 2)}, "flip of axis 0"),
        # two slabs x_2 in {0, 2}: the flips and the swap keep it
        ({c for c in itertools.product(range(3), repeat=3) if c[2] != 1},
         "cyclic axis shift"),
    ], ids=["flip", "cycle"])
    def test_h1_names_the_failing_generator(self, mask, generator):
        d = len(next(iter(mask)))
        report = validate_spec(CarpetSpec(d=d, l=3, mask=frozenset(mask)))
        assert not report.h1
        assert f"H1: mask not invariant under the {generator}" in report.details

    def test_h1_fails_on_asymmetric_mask(self):
        mask = frozenset((i, j) for i in range(3) for j in range(3) if (i, j) != (0, 1))
        report = validate_spec(CarpetSpec(d=2, l=3, mask=mask))
        assert not report.h1
        assert any("H1" in d for d in report.details)

    def test_h2_fails_on_disconnected_mask(self):
        # two opposite corners only: symmetric under the square group? no;
        # use a cross-free pattern that is symmetric but disconnected
        mask = frozenset({(0, 0), (0, 2), (2, 0), (2, 2), (1, 1)})
        report = validate_spec(CarpetSpec(d=2, l=3, mask=mask))
        assert not report.h2

    def test_h4_fails_without_full_border_row(self):
        # keep everything except the bottom-center cell; fails the border row
        mask = frozenset((i, j) for i in range(3) for j in range(3)
                         if (i, j) not in {(1, 0)})
        report = validate_spec(CarpetSpec(d=2, l=3, mask=mask))
        assert not report.h4

    def test_h3_diagonal_only_block(self):
        # l=4 checkerboard-ish center: a 2x2 block whose kept cells touch
        # only at the corner must fail the non-diagonality condition
        mask = set()
        for i in range(4):
            for j in range(4):
                mask.add((i, j))
        mask.discard((1, 1))
        mask.discard((2, 2))
        report = validate_spec(CarpetSpec(d=2, l=4, mask=frozenset(mask)))
        assert not report.h3


class TestDimensions:
    def test_sc31_bounds(self):
        b = dimension_bounds(preset("SC(3,1)"))
        assert abs(b.d_h - math.log(8) / math.log(3)) <= 1e-14
        # generic resistance window: rho*m in [l^2, 2^(1-d) l m] = [9, 12]
        assert abs(b.d_s_lower - 2 * math.log(8) / math.log(12)) <= 1e-12
        assert abs(b.d_s_upper - 2 * math.log(8) / math.log(9)) <= 1e-12
        assert b.d_s_lower == pytest.approx(1.6736576739, abs=1e-9)
        assert b.d_s_upper == pytest.approx(1.8927892607, abs=1e-9)

    def test_spec_d_h_is_the_bounds_d_h(self):
        for name in preset_names():
            spec = preset(name)
            assert spec.d_h == dimension_bounds(spec).d_h

    def test_ms31_published_window(self):
        b = dimension_bounds(preset("MS(3,1)"))
        assert abs(b.d_h - math.log(20) / math.log(3)) <= 1e-14
        # published interval [2.21, 2.60] is sharper than the generic window
        assert b.d_s_upper == pytest.approx(2.60, abs=1e-9)
        assert b.d_s_lower >= 2.21 - 1e-9

    def test_verdict_signs_across_presets(self):
        lows = {n: dimension_bounds(preset(n)).d_s_lower for n in preset_names()}
        ups = {n: dimension_bounds(preset(n)).d_s_upper for n in preset_names()}
        assert lows["MS(3,1)"] > 2.0
        assert ups["MS(6,4)"] < 2.0
        assert lows["MS(5,3)"] < 2.0 < ups["MS(5,3)"]

    def test_dw_ds_dh_relation(self):
        for name in preset_names():
            b = dimension_bounds(preset(name))
            # d_s = 2 d_h / d_w at both window edges
            assert abs(b.d_s_lower - 2 * b.d_h / b.d_w_upper) <= 1e-12
            assert abs(b.d_s_upper - 2 * b.d_h / b.d_w_lower) <= 1e-12

    def test_invalid_carpet_rejected(self):
        mask = frozenset((i, j) for i in range(3) for j in range(3) if (i, j) != (0, 1))
        with pytest.raises(InvalidCarpetError):
            dimension_bounds(CarpetSpec(d=2, l=3, mask=mask))


class TestRefine:
    """Level-n cell enumeration, which build_graph's vertex list carries."""

    def test_counts(self):
        spec = preset("SC(3,1)")
        for level in range(1, 4):
            assert build_graph(spec, level).n_vertices == 8**level

    def test_lexicographic_and_deterministic(self):
        spec = preset("SC(3,1)")
        a = build_graph(spec, 2)
        b = build_graph(spec, 2)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.edges, b.edges)
        # vertex v has address (cells[v // m], cells[v % m]): the first
        # digit picks the level-1 cell, the second the sub-cell inside it
        cells = np.array(spec.sorted_cells())
        v = np.arange(a.n_vertices)
        assert np.array_equal(a.coords // spec.l, cells[v // spec.m])
        assert np.array_equal(a.coords % spec.l, cells[v % spec.m])

    def test_cell_geometry(self):
        spec = preset("SC(3,1)")
        g = build_graph(spec, 2)
        side = 1.0 / spec.l**2
        assert side == pytest.approx(1.0 / 9.0)
        cells = spec.sorted_cells()
        # address (min cell, max cell) is vertex index(min) * m + index(max)
        v = cells.index(min(spec.mask)) * spec.m + cells.index(max(spec.mask))
        center = (g.coords[v] + 0.5) * side
        assert all(0.0 < c < 1.0 for c in center)
        # the all-zero address sits in the lower corner on every axis
        zero = 0
        assert tuple((g.coords[zero] + 0.5) * side) == (1.0 / 18.0, 1.0 / 18.0)
        top = spec.l**2 - 1
        touches = tuple((bool(c == 0), bool(c == top)) for c in g.coords[zero])
        assert touches == ((True, False), (True, False))
        assert zero in g.boundary


class TestTextFormat:
    def test_round_trip_presets(self):
        for name in preset_names():
            spec = preset(name)
            again = parse_spec_text(format_spec_text(spec))
            assert again.mask == spec.mask
            assert (again.d, again.l) == (spec.d, spec.l)

    def test_file_round_trip(self, tmp_path):
        spec = preset("MS(4,2)")
        path = tmp_path / "carpet.txt"
        save_spec(spec, path)
        again = load_spec(path)
        assert again.mask == spec.mask

    def test_parse_rejects_bad_input(self):
        with pytest.raises(MalformedSpecError):
            parse_spec_text("dimension=2\nmask=\n111\n111\n111\n")
        with pytest.raises(MalformedSpecError):
            parse_spec_text("dimension=2\nlength_scale=3\nmask=\n111\n1x1\n111\n")
        with pytest.raises(MalformedSpecError):
            parse_spec_text("dimension=2\nlength_scale=3\nmask=\n111\n101\n")

    def test_comments_and_blanks_ignored(self):
        text = "# carpet\n\ndimension=2\nlength_scale=3\nmask=\n111\n101\n111\n"
        spec = parse_spec_text(text)
        assert spec.m == 8


class TestPresets:
    def test_names_normalization(self):
        assert normalize_preset_name("sc31") == "SC(3,1)"
        assert normalize_preset_name("SC(3,1)") == "SC(3,1)"
        assert normalize_preset_name("ms(6,4)") == "MS(6,4)"
        with pytest.raises(KeyError):
            normalize_preset_name("SC(5,9)")

    def test_counts_match_construction(self):
        # central-band construction: m = l^d - (l - w)^d + d-dependent count;
        # spot-check the published cell counts instead of re-deriving
        expected = {"SC(3,1)": 8, "MS(3,1)": 20, "MS(4,2)": 32,
                    "MS(5,3)": 44, "MS(6,4)": 56}
        for name, m in expected.items():
            assert preset(name).m == m, name

    def test_random_spec_with_symmetry_survives_round_trip(self):
        rng = random.Random(3)
        for _ in range(20):
            l = rng.choice([3, 5])
            removed = set()
            # remove a symmetric orbit around the center to keep H1 plausible
            i = rng.randrange(1, l - 1)
            j = rng.randrange(1, l - 1)
            for a, b in {(i, j), (j, i), (l - 1 - i, j), (i, l - 1 - j),
                         (l - 1 - i, l - 1 - j), (j, i), (l - 1 - j, i),
                         (j, l - 1 - i), (l - 1 - j, l - 1 - i)}:
                removed.add((a, b))
            mask = frozenset((a, b) for a in range(l) for b in range(l)
                             if (a, b) not in removed)
            if len(mask) >= l * l:
                continue
            spec = CarpetSpec(d=2, l=l, mask=mask)
            assert parse_spec_text(format_spec_text(spec)).mask == mask
