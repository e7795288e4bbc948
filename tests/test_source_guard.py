"""Source guards over src/kquant: only grids knows the kind of grid it holds,
no function imports from another kquant module, and functionals forms the
twisted weight and runs the path rule in one place each."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kquant"
MODE_NAMES = {"mode", "grid_mode"}
# load_potential checks a file header against the grid it is loaded onto.
ALLOWED_MODE_COMPARISONS = {("geometry.py", "load_potential")}
# The balanced iteration tracks l_sigma_k, which sits a layer above it.
# Moving the iteration into functionals would rename its declared per-layer
# benchmark metric quantize.sigma_balanced_iterate.*, so the import stays.
ALLOWED_FUNCTION_IMPORTS = {("quantize.py", "sigma_balanced_iterate", "functionals", "l_sigma_k")}


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
    stray = [
        (func, line)
        for func, line in found.mode_comparisons
        if (path.name, func) not in ALLOWED_MODE_COMPARISONS
    ]
    assert stray == [], f"{path.name} branches on the grid kind: {stray}"


@pytest.mark.parametrize("path", modules(), ids=lambda p: p.name)
def test_no_function_level_private_imports(path):
    found = scan(path.read_text())
    assert found.private_imports == [], f"{path.name}: {found.private_imports}"


@pytest.mark.parametrize("path", modules(), ids=lambda p: p.name)
def test_no_function_level_kquant_imports(path):
    found = scan(path.read_text())
    stray = [imp for imp in found.function_imports if (path.name, *imp) not in ALLOWED_FUNCTION_IMPORTS]
    assert stray == [], f"{path.name} imports inside functions: {stray}"


def owners(tree: ast.Module, pred) -> set[str]:
    """Names of the top-level definitions (or <module>) holding a node that satisfies pred."""
    return {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top) if pred(node)}


def test_functionals_forms_weight_and_path_rule_once():
    tree = ast.parse((SRC / "functionals.py").read_text())

    def calls_psi(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "psi_potential"

    def loops_over_nodes(node):
        return isinstance(node, (ast.For, ast.comprehension)) and any(
            getattr(n, "id", None) == "S_NODES" for n in ast.walk(node.iter)
        )

    assert owners(tree, calls_psi) == {"delta_i_sigma", "fk_prime"}
    assert owners(tree, loops_over_nodes) == {"_path_integral"}
