"""The library names the benchmark under `perfbench/` uses still exist.

Tier-1 runs only part of `perfbench/`: the calibration ladder of
`run.py --trace 1`, for one, calls `symmat.build_perturbed` and
`symmat.jacobi_eig`, and no test reaches it.  So this test parses every
`perfbench/*.py` and checks each `harness.X`, `symmat.X`, `rankone.X`,
`bounds.X` and `cli.X` attribute it reads against the package: a deletion
from `src` that the benchmark still needs fails here, not in the benchmark.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("harness", "symmat", "rankone", "bounds", "cli")


def _used_attributes() -> set:
    """(file name, module, attribute) for every `module.attribute` in perfbench."""
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES
            ):
                used.add((path.name, node.value.id, node.attr))
    return used


def test_every_library_name_perfbench_uses_exists():
    used = _used_attributes()
    # the ladder's calls are among those found, so the parse sees them
    assert {("run.py", "symmat", "build_perturbed"), ("run.py", "symmat", "jacobi_eig")} <= used
    missing = [
        f"{name}: {module}.{attr}"
        for name, module, attr in sorted(used)
        if not hasattr(importlib.import_module(f"eigenpert.{module}"), attr)
    ]
    assert not missing
