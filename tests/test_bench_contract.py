"""What the benchmark harness in bench/ needs from the package.

The harness wraps named functions in spans for `--trace 1` runs; a function
that is renamed or deleted under it breaks those runs.  bench/layers.py is
loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import endhered
import endhered.cli  # noqa: F401  (bench traces cli.run)

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"

# the modules bench/run.py installs its tracer on
TRACED_MODULES = ("matchings", "patterns", "tables", "series", "asymptotics", "structure", "corpus", "cli")


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", TRACED_MODULES)
def test_traced_module_imports(name):
    assert importlib.import_module(f"endhered.{name}") is getattr(endhered, name)


def test_every_traced_target_resolves():
    targets = _layers().targets(endhered)
    assert targets
    for module, attr, span, _, _ in targets:
        assert callable(getattr(module, attr, None)), f"{span}: {module.__name__}.{attr} is missing"
