"""One writer for every file: temp file per process, atomic rename, CSV format."""

import ast
import os
import pathlib

import numpy as np
import pytest

from carpetgas import cli, geometry, oracle
from carpetgas.artifacts import FLOAT_FMT, atomic_open, write_csv
from carpetgas.eigensolve import Spectrum, save_spectrum
from carpetgas.graph import build_graph, export_graph
from carpetgas.trace import save_model

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "carpetgas"
WRITERS = sorted(p for p in PACKAGE.glob("*.py") if p.name != "artifacts.py")
SC31 = geometry.preset("SC(3,1)")

# (artifact file name, write it at the given path) for every kind of writer
# the package has: cache files, exports and a CLI artifact
CASES = {
    "spectrum": ("spectrum.json", lambda path: save_spectrum(
        Spectrum(eigenvalues=np.array([0.0, 1.0, 2.5])), path)),
    "model": ("model.json", lambda path: save_model(oracle.box_model(2), path)),
    "spec": ("carpet.txt", lambda path: geometry.save_spec(SC31, path)),
    "graph": ("graph.edges", lambda path: export_graph(
        build_graph(SC31, 2), path, path + ".json")),
    "cli": (f"carpet-{SC31.spec_hash()}.json", lambda path: cli.main(
        ["carpet", "validate", "--preset", "SC(3,1)", "--out", os.path.dirname(path)])),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_another_writers_temp_file_is_left_alone(tmp_path, case):
    # a second process holds path + ".tmp" open while this one writes path
    name, write = CASES[case]
    (tmp_path / "ref").mkdir()
    write(str(tmp_path / "ref" / name))
    want = (tmp_path / "ref" / name).read_bytes()

    path = tmp_path / name
    path.write_text("old\n")
    with open(str(path) + ".tmp", "w") as other:
        other.write('{"from": 1}\n')
        other.flush()
        write(str(path))
        other.write("}\n")
    assert path.read_bytes() == want
    assert pathlib.Path(str(path) + ".tmp").read_text() == '{"from": 1}\n}\n'
    assert not [p for p in os.listdir(tmp_path) if p.startswith(name + f".{os.getpid()}")]


def replacing_writes(source: str) -> list[str]:
    """Calls that rename files or open one for writing: os.replace,
    os.rename, Path.write_text/write_bytes, and open() with a mode that is
    not a plain read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("replace", "rename") and isinstance(func, ast.Attribute) \
                and getattr(func.value, "id", None) == "os":
            found.append(f"os.{name} (line {node.lineno})")
        elif name in ("write_text", "write_bytes"):
            found.append(f"{name} (line {node.lineno})")
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                found.append(f"open for writing (line {node.lineno})")
    return found


def test_write_scanner_flags_writes_and_accepts_reads():
    src = ("import os\nopen(p)\nopen(p, 'rb')\nopen(p, mode='r')\n"
           "open(p, 'w')\nopen(p, mode='a')\nopen(p, m)\nos.replace(a, b)\n"
           "os.rename(a, b)\ns.replace('a', 'b')\nq.write_text('x')\n")
    assert replacing_writes(src) == [
        "open for writing (line 5)", "open for writing (line 6)",
        "open for writing (line 7)", "os.replace (line 8)", "os.rename (line 9)",
        "write_text (line 11)"]


@pytest.mark.parametrize("path", WRITERS, ids=lambda p: p.name)
def test_only_artifacts_writes_files(path):
    assert replacing_writes(path.read_text()) == []


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("writer died")
    # a row that is not numbers raises partway through the table
    with pytest.raises(TypeError):
        write_csv(path, ("a", "b"), [(1.0, 2.0), (1.0, "x")])
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["table.csv"]


def test_csv_format(tmp_path):
    for n in (0, 7, -3, 10**16, 2**53 - 1):
        assert FLOAT_FMT % n == str(n)
    path = tmp_path / "t.csv"
    write_csv(path, ("k", "x"), [(2, 0.1), (-1, 1e-300)])
    assert path.read_bytes() == b"k,x\n2,0.10000000000000001\n-1,1e-300\n"
