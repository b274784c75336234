"""The benchmark's tracer (`bench/tracing.py`) wraps package attributes by
their names; every one it names must exist, so a refactor that drops one
fails here rather than at the next traced benchmark run."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _sites():
    """`_SITES` read from the source without importing it, so nothing is
    written next to it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_SITES"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no _SITES in {TRACING}")


def test_tracer_targets_exist():
    sites = _sites()
    assert sites
    for path, _ in sites:
        module_name, attr = path.split(":")
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{path}: no attribute {part!r}"
            owner = getattr(owner, part)
        assert callable(owner), path
