"""Source guards over src/kquant: only grids knows the kind of grid it holds,
no function imports from another kquant module, no module reads a private
attribute that another module defines, functionals forms the twisted weight
and pairs with (k + Delta_phi) in the pointwise differentials and in the leg
rule only, runs every path rule as one block, profiles and samples are
pulled back by one route with psi normalized in one place, and every
definition has a reader in src/ or a stated reason to stay."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import kquant

SRC = Path(__file__).resolve().parents[1] / "src" / "kquant"
MODE_NAMES = {"mode", "grid_mode"}
# The balanced iteration tracks l_sigma_k, which sits a layer above it.
# Moving the iteration into functionals would rename its declared per-layer
# benchmark metric quantize.sigma_balanced_iterate.*, so the import stays.
ALLOWED_FUNCTION_IMPORTS = {("quantize.py", "sigma_balanced_iterate", "functionals", "l_sigma_k")}
# Definitions that no other src/ code reads, each with its reason to stay.
# Re-exports and __all__ entries are not reads.
ALLOWED_UNREAD = {
    "functionals.py:delta_l_sigma": "kept for the planned sigma-balanced solve",
    "quantize.py:balanced_residual": "kept for the planned sigma-balanced solve",
    "quantize.py:sigma_balanced_iterate": "kept for the planned sigma-balanced solve; read by kbench",
    "functionals.py:calabi": "read by kbench",
    "reporting.py:report_from_json": "public API: reads back the reports that emit_report writes",
}


class _Scan(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.mode_comparisons: list[tuple[str, int]] = []
        self.private_imports: list[tuple[str, str]] = []
        self.function_imports: list[tuple[str, str, str]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Compare(self, node):
        for side in (node.left, *node.comparators):
            name = getattr(side, "attr", None) or getattr(side, "id", None)
            if name in MODE_NAMES:
                self.mode_comparisons.append((self.scope[-1] if self.scope else "<module>", node.lineno))
                break
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        internal = node.level > 0 or (node.module or "").split(".")[0] == "kquant"
        if self.scope and internal:
            module = (node.module or "").removeprefix("kquant").lstrip(".")
            for alias in node.names:
                self.function_imports.append((self.scope[-1], module, alias.name))
                if alias.name.startswith("_"):
                    self.private_imports.append((self.scope[-1], alias.name))

    def visit_Import(self, node):
        for alias in node.names:
            if self.scope and alias.name.split(".")[0] == "kquant":
                module = alias.name.removeprefix("kquant").lstrip(".")
                self.function_imports.append((self.scope[-1], module, alias.name))


def scan(text: str) -> _Scan:
    found = _Scan()
    found.visit(ast.parse(text))
    return found


def modules():
    return sorted(SRC.glob("*.py"))


def test_guard_sees_both_patterns():
    found = scan(
        "def f(grid):\n"
        "    from .quantize import _scaled_sections\n"
        "    from kquant.lab import run_experiment\n"
        "    import kquant.grids\n"
        "    return grid.mode == 'radial'\n"
    )
    assert found.mode_comparisons == [("f", 5)]
    assert found.private_imports == [("f", "_scaled_sections")]
    assert found.function_imports == [
        ("f", "quantize", "_scaled_sections"),
        ("f", "lab", "run_experiment"),
        ("f", "grids", "kquant.grids"),
    ]


@pytest.mark.parametrize("path", modules(), ids=lambda p: p.name)
def test_only_grids_compares_modes(path):
    if path.name == "grids.py":
        return
    found = scan(path.read_text())
    assert found.mode_comparisons == [], f"{path.name} branches on the grid kind: {found.mode_comparisons}"


@pytest.mark.parametrize("path", modules(), ids=lambda p: p.name)
def test_no_function_level_private_imports(path):
    found = scan(path.read_text())
    assert found.private_imports == [], f"{path.name}: {found.private_imports}"


@pytest.mark.parametrize("path", modules(), ids=lambda p: p.name)
def test_no_function_level_kquant_imports(path):
    found = scan(path.read_text())
    stray = [imp for imp in found.function_imports if (path.name, *imp) not in ALLOWED_FUNCTION_IMPORTS]
    assert stray == [], f"{path.name} imports inside functions: {stray}"


def private_names(tree: ast.Module) -> set[str]:
    """The _-prefixed (not dunder) names a module defines: functions, classes,
    methods, assigned names and attributes it stores."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.add(node.attr)
    return {name for name in found if name.startswith("_") and not name.startswith("__")}


def cross_module_private_reads(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, attribute) for every read of a private attribute that
    another module defines and the reading module does not."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defined = {name: private_names(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        elsewhere = set().union(*(d for other, d in defined.items() if other != name)) - defined[name]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in elsewhere:
                found.append((name, node.lineno, node.attr))
    return sorted(found)


def test_no_cross_module_private_attribute_reads():
    probe = {
        "a.py": "class P:\n    def _own(self):\n        self._kept = 0\n        return self._own() + self._kept\n\n_TABLE = {}\n",
        "b.py": "def f(p, np):\n    p._kept = 1\n    return p._own(), p._kept, np._core, a._TABLE\n",
    }
    assert cross_module_private_reads(probe) == [("b.py", 3, "_TABLE"), ("b.py", 3, "_own")]
    found = cross_module_private_reads({path.name: path.read_text() for path in modules()})
    assert found == [], f"private attributes read across modules: {found}"


def owners(tree: ast.Module, pred) -> set[str]:
    """Names of the top-level definitions (or <module>) holding a node that satisfies pred."""
    return {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top) if pred(node)}


def test_functionals_forms_weight_and_path_rule_once():
    tree = ast.parse((SRC / "functionals.py").read_text())

    def calls(name):
        return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    def reads_nodes(node):
        return isinstance(node, ast.Name) and node.id == "S_NODES" and isinstance(node.ctx, ast.Load)

    def loops_over_nodes(node):
        return isinstance(node, (ast.For, ast.comprehension)) and any(map(reads_nodes, ast.walk(node.iter)))

    def calls_laplacian(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) in ("base_laplace", "base_laplace_transpose", "laplace")
            or getattr(node.func, "id", None) == "density_field"
        )

    # the pointwise differentials form e^psi of one potential (or block) and
    # pair with (k + Delta_phi) through _pairing; the leg rule of i_sigma_k
    # forms e^psi of its node block from per-term pullbacks, scaled by the
    # normalization quantize owns; it applies Delta_0 once per term for the
    # density, which e^psi pairs with on a profile term, and its transpose
    # once per sampled term
    assert owners(tree, calls("psi_potential")) == {"delta_i_sigma", "fk_prime"}
    assert owners(tree, calls("psi_scale")) == {"_leg_integral"}
    assert owners(tree, calls_laplacian) == {"_pairing", "_leg_integral"}
    assert owners(tree, loops_over_nodes) == set()
    assert owners(tree, reads_nodes) == {"_path_integral", "_leg_integral"}


def test_one_pullback_route_and_one_exponential_per_leg():
    trees = {name: ast.parse((SRC / name).read_text()) for name in ("geometry.py", "quantize.py", "functionals.py")}

    def calls_attr(name):
        return lambda node: isinstance(node, ast.Call) and getattr(node.func, "attr", None) == name

    def calls_name(name):
        return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    def refuses_mass(node):
        return isinstance(node, ast.Raise) and "normalization" in ast.unparse(node)

    # only the lift interpolates, and each twisted route takes its defect
    # from the lift's pullback_defect: psi_potential for one potential (or
    # block), the leg rule per term
    assert owners(trees["geometry.py"], calls_name("interp_matrix")) == {"AutomorphismLift"}
    assert owners(trees["quantize.py"], calls_attr("pullback_defect")) == {"psi_potential"}
    assert owners(trees["functionals.py"], calls_attr("pullback_defect")) == {"_leg_integral"}
    assert owners(trees["functionals.py"], calls_attr("compose_potential")) == set()
    # psi's normalization and its finite-mass check live in psi_scale, which
    # psi_potential and the leg rule share
    assert owners(trees["quantize.py"], calls_name("psi_scale")) == {"psi_potential"}
    assert owners(trees["quantize.py"], refuses_mass) == {"psi_scale"}
    # the leg rule exponentiates its node block once
    leg = next(top for top in trees["functionals.py"].body if getattr(top, "name", None) == "_leg_integral")
    assert sum(map(calls_attr("exp"), ast.walk(leg))) == 1


def unread_definitions(sources: dict[str, str]) -> set[str]:
    """Top-level functions and classes, and public methods, that no code
    outside their own body loads by name or reads as an attribute.

    Names are matched as names, so a method counts as read when any
    attribute of that name is read, and a definition when a local of that
    name is loaded.  Every read is indexed once, by name, with its node id.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads: dict[str, set[int]] = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.id, set()).add(id(n))
            elif isinstance(n, ast.Attribute):
                reads.setdefault(n.attr, set()).add(id(n))
    found = set()
    for fname, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(top.name, top)]
            if isinstance(top, ast.ClassDef):
                defs += [
                    (f"{top.name}.{node.name}", node)
                    for node in top.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                ]
            for qualname, node in defs:
                if not reads.get(qualname.split(".")[-1], set()) - set(map(id, ast.walk(node))):
                    found.add(f"{fname}:{qualname}")
    return found


def test_no_unread_definitions():
    probe = {
        "a.py": "def used():\n    return unused_local\n\nclass K:\n    def m(self):\n        return self.m()\n",
        "b.py": "from .a import used\n__all__ = ['gone']\n\ndef gone():\n    return used()\n",
    }
    assert unread_definitions(probe) == {"a.py:K", "a.py:K.m", "b.py:gone"}
    unread = unread_definitions({path.name: path.read_text() for path in modules()})
    assert unread - set(ALLOWED_UNREAD) == set(), "definitions with no reader in src/"
    assert set(ALLOWED_UNREAD) - unread == set(), "allowed entries that now have a reader"


def test_exported_functions_are_in_their_modules_all():
    # kbench's tracer wraps the names in each layer's __all__, so a function
    # the package exports but its module does not list goes untraced
    stray = [
        name
        for name, value in vars(kquant).items()
        if inspect.isfunction(value) and name not in sys.modules[value.__module__].__all__
    ]
    assert stray == [], f"exported by kquant, missing from their module's __all__: {stray}"
