"""Every function the benchmark's tracer wraps still exists in `tecc`.

A traced benchmark run replaces the functions named in `bench/tracing.py`
`TARGETS`; a name deleted from the library breaks only that run, so this
test reads the table (without importing or running the benchmark) and
resolves each entry.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_targets() -> dict[str, tuple[str, str]]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no TARGETS")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr in targets.values()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"bench/tracing.py TARGETS names missing functions: {missing}"
