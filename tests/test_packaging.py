"""Packaging: every third-party import of ``src/repro`` is a declared dependency.

The scan walks every ``import``/``from ... import`` statement in the package
(module level or not), keeps the top-level module name, and drops the
standard library (``sys.stdlib_module_names``) and ``repro`` itself.  What
remains must appear in ``setup.py``'s ``INSTALL_REQUIRES``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: Import names whose distribution name differs (none today).
DISTRIBUTION_OF = {}


def _setup_constant(name: str):
    """A literal module-level assignment of ``setup.py``, without running it."""

    tree = ast.parse((REPO / "setup.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"setup.py defines no {name}")


def _requirement_name(requirement: str) -> str:
    return re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()


def third_party_imports(root: Path = PACKAGE) -> dict:
    """``{top-level module: first file importing it}`` outside the stdlib."""

    found = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                found.setdefault(top, path.relative_to(REPO).as_posix())
    return found


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names needs Python 3.10")
def test_every_third_party_import_is_declared():
    declared = {_requirement_name(req) for req in _setup_constant("INSTALL_REQUIRES")}
    imports = third_party_imports()
    assert "networkx" in imports  # the scan sees hardware/topology.py
    missing = {module: where for module, where in imports.items()
               if DISTRIBUTION_OF.get(module, module).lower() not in declared}
    assert not missing, f"undeclared runtime dependencies: {missing}"


def test_test_extra_names_the_test_dependencies():
    extras = _setup_constant("EXTRAS_REQUIRE")
    names = {_requirement_name(req) for req in extras["test"]}
    assert {"pytest", "hypothesis"} <= names


def test_setup_docstring_names_no_missing_metadata_file():
    doc = ast.get_docstring(ast.parse((REPO / "setup.py").read_text()))
    if not (REPO / "pyproject.toml").exists():
        assert "lives in ``pyproject.toml``" not in doc
