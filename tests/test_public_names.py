"""Every name a module exports through ``__all__``, or the benchmark's
trace patches, exists."""

import importlib
import pathlib
import pkgutil
import sys

import multibump


def test_every_exported_name_resolves():
    modules = [multibump] + [
        importlib.import_module(f"multibump.{info.name}")
        for info in pkgutil.iter_modules(multibump.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_package_exports_every_name_it_imports_from_a_submodule():
    """A name the package imports from a submodule's ``__all__`` is in
    ``multibump.__all__``, so ``from multibump import *`` binds it."""
    unexported = []
    for info in pkgutil.iter_modules(multibump.__path__):
        module = importlib.import_module(f"multibump.{info.name}")
        unexported += [
            f"{module.__name__}.{name}"
            for name in getattr(module, "__all__", ())
            if name not in multibump.__all__
            and getattr(multibump, name, None) is getattr(module, name)
        ]
    assert unexported == []


def test_every_traced_name_resolves():
    """The benchmark's trace patches names the package must keep importable."""
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(bench))

    class RecordingTracer:
        def __init__(self):
            self.targets = []

        def patch(self, module, attr, name, before=None, after=None):
            self.targets.append((module, attr))

    tracer = RecordingTracer()
    layers.install(tracer)
    assert tracer.targets
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in tracer.targets
        if not hasattr(module, attr)
    ]
    assert missing == []
