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
