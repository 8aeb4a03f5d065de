"""Every exported name, and every name the benchmark tracer wraps, resolves.

Exported names are those in the package's and each submodule's ``__all__``;
the package's are the submodules' put together, plus ``__version__``.

The tracer in perfbench/spans.py marks a whole layer unmeasured when one of
its target names is gone, so a deletion that leaves such a name stale or
blank must fail here rather than in a benchmark run.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import conforminv

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_exports_resolve():
    assert [name for name in conforminv.__all__ if not hasattr(conforminv, name)] == []


def test_package_exports_the_submodules_exports():
    # each name is declared once, in its submodule's __all__
    submodules = [importlib.import_module(f"conforminv.{info.name}")
                  for info in pkgutil.iter_modules(conforminv.__path__)]
    declared = [name for module in submodules for name in getattr(module, "__all__", [])]
    assert len(conforminv.__all__) == len(set(conforminv.__all__))
    assert sorted(conforminv.__all__) == sorted(declared + ["__version__"])


def test_submodule_exports_resolve():
    for info in pkgutil.iter_modules(conforminv.__path__):
        module = importlib.import_module(f"conforminv.{info.name}")
        names = getattr(module, "__all__", [])
        assert [name for name in names if not hasattr(module, name)] == [], info.name


def test_tracer_targets_resolve():
    assert _load_spans().Tracer().missing == []
