"""Every name an import binds in a package module is used in that module,
and so is every private name the module defines at top level; every name a
module lists in ``__all__`` is bound at its top level; every public function
a module defines is a plain Python function; every keyword default of a
public function is set by some call in the package or the benchmark."""

import ast
import functools
import importlib
import math
import pathlib
import types

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "carpetgas"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_scanner_flags_unused_and_accepts_used():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom x import a, b as c\n"
           "def f():\n    return math.pi + c\n")
    assert unused_imports(src) == ["a (line 4)", "os (line 3)"]


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_name`` bindings (def, class or assignment) that no
    expression in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_private_scanner_flags_unread_and_accepts_read():
    src = ("import math\n__all__ = []\n_A = 1\n_B, _C = 2, 3\nD = 4\n"
           "def _f():\n    return _A\n"
           "def _g():\n    return 0\n"
           "class _K:\n    _x = 1\n"
           "def h():\n    _local = _f()\n    return _local + _C\n")
    assert unused_private_names(src) == ["_B (line 4)", "_K (line 10)", "_g (line 8)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unused_private_names(path.read_text()) == []


def unbound_exports(source: str) -> list[str]:
    """Names listed in a module-level ``__all__`` that no top-level def,
    class, assignment or import of the module binds."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_export_scanner_flags_unbound_names():
    src = ("from x import a\nimport os.path\nB = 1\n"
           "def f():\n    g = 2\n    return g\n"
           "class K:\n    pass\n"
           "__all__ = ['a', 'os', 'B', 'f', 'K', 'g', 'missing']\n")
    assert unbound_exports(src) == ["g", "missing"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []


def unplain_functions(module) -> list[str]:
    """Public callables defined in ``module`` that are not plain functions.

    A tracer that rebinds module attributes wraps only plain functions, so a
    public ``functools.cache`` wrapper drops out of the trace; the cache goes
    on a private core behind a plain public function."""
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_") and callable(value)
                  and not isinstance(value, type)
                  and getattr(value, "__module__", None) == module.__name__
                  and not isinstance(value, types.FunctionType))


def test_plain_function_scanner_flags_cached_functions():
    mod = types.ModuleType("fake")

    def plain():
        return 1

    plain.__module__ = "fake"
    cached = functools.cache(plain)
    mod.plain, mod.cached, mod._core = plain, cached, cached
    mod.Kind, mod.imported = type("Kind", (), {"__module__": "fake"}), functools.reduce
    assert unplain_functions(mod) == ["cached"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_public_functions_are_plain(path):
    name = "carpetgas" if path.stem == "__init__" else f"carpetgas.{path.stem}"
    assert unplain_functions(importlib.import_module(name)) == []


PERFBENCH = PACKAGE.parent.parent / "perfbench"

# Public functions whose keyword defaults only tests set: the independent
# references that tests compare the pipeline against, kept on purpose (the
# other references kept so, such as tail_density, blackbody_spectrum,
# waveguide_trace and load_model, have no keyword default).
UNSET_DEFAULTS_EXEMPT = {
    "zeta.zeta_direct": "criterion 09's direct-sum reference; tests set "
                        "gamma and tail_correct",
    "thermo.density_series": "the series reference for the polylogarithm "
                             "density; tests set its truncation",
    "oracle.cube_photon_energy_density": "the exact cube reference for the "
                                         "blackbody law; tests set its cutoff",
    "thermo.free_energy_density": "the paper's f = -log Xi / (beta V_s); "
                                  "tests check it, no stage prints it yet",
}


def unset_keyword_defaults(definitions: dict[str, str],
                           callers: list[str]) -> list[str]:
    """``module.function(param)`` for each keyword default of a public
    top-level function in ``definitions`` (module name -> source) that no
    call in ``callers`` sets, by keyword or by position.

    A call is matched by the called name alone; ``rec.call(phase, label,
    fn, *args, **kw)`` counts as a call of ``fn``.  A ``*args`` may reach
    every later position and a ``**kw`` every keyword, so both count as
    setting them."""
    positions, keywords = {}, set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute) and func.attr == "call" and len(args) >= 3:
                func, args = args[2], args[3:]
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            reach = math.inf if any(isinstance(a, ast.Starred) for a in args) else len(args)
            positions[name] = max(positions.get(name, 0), reach)
            keywords.update((name, kw.arg) for kw in node.keywords)
    unset = []
    for module, source in definitions.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            a, name = node.args, node.name
            params = a.posonlyargs + a.args
            first = len(params) - len(a.defaults)
            defaults = [(i, p.arg) for i, p in enumerate(params) if i >= first]
            defaults += [(math.inf, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None]
            unset += [f"{module}.{name}({param})" for i, param in defaults
                      if positions.get(name, 0) <= i
                      and (name, param) not in keywords and (name, None) not in keywords]
    return unset


def test_unset_default_scanner_flags_defaults_no_call_sets():
    definitions = {"m": ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                         "def g(x=0):\n    pass\n"
                         "def h(y=0):\n    pass\n"
                         "def k(z=0, w=1):\n    pass\n"
                         "def _p(q=0):\n    pass\n")}
    callers = ["f(1, 2, d=5)\n", "rec.call('phase', 'label', m.g, 1)\n",
               "h(**options)\nk(*pair)\n"]
    assert unset_keyword_defaults(definitions, callers) == ["m.f(c)", "m.f(e)"]


def test_every_keyword_default_is_set_by_a_caller():
    definitions = {p.stem: p.read_text() for p in MODULES}
    callers = [p.read_text() for p in [*ALL_MODULES, *sorted(PERFBENCH.glob("*.py"))]]
    found = unset_keyword_defaults(definitions, callers)
    assert [item for item in found
            if item.split("(")[0] not in UNSET_DEFAULTS_EXEMPT] == []
    # an exemption that no longer exempts anything goes
    assert set(UNSET_DEFAULTS_EXEMPT) <= {item.split("(")[0] for item in found}
