"""Every name a module exports through ``__all__``, or the benchmark's
trace patches, exists; package-wide rules on the classes; and what
importing the package loads."""

import dataclasses
import importlib
import pathlib
import pkgutil
import os
import re
import subprocess
import sys

import multibump


def _package_modules():
    return [importlib.import_module(f"multibump.{info.name}")
            for info in pkgutil.iter_modules(multibump.__path__)]


def test_every_exported_name_resolves():
    modules = [multibump] + _package_modules()
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
    for module in _package_modules():
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


def test_dataclasses_holding_arrays_compare_by_identity():
    """A dataclass with an ndarray field keeps object's ==, which never raises;
    the generated field-wise == raises on two equal but distinct arrays."""
    field_wise = [
        f"{module.__name__}.{name}"
        for module in _package_modules()
        for name, obj in vars(module).items()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
        and any("ndarray" in str(f.type) for f in dataclasses.fields(obj))
        and obj.__eq__ is not object.__eq__
    ]
    assert field_wise == []


def test_no_module_reads_a_private_attribute_of_the_reduction_context():
    """The underscore attributes ``ReductionContext`` sets stay inside
    ``reduction``; other modules use its public methods."""
    src = pathlib.Path(multibump.__file__).parent
    private = set(re.findall(r"self\.(_\w+)\s*=(?!=)", (src / "reduction.py").read_text()))
    assert private
    readers = [
        f"{path.name} reads .{name}"
        for path in sorted(src.glob("*.py")) if path.name != "reduction.py"
        for name in sorted(private)
        if re.search(rf"\.{name}\b", path.read_text())
    ]
    assert readers == []


def test_importing_the_package_and_cli_loads_no_process_pool():
    """Only a study that starts worker processes imports the pool module."""
    src = pathlib.Path(multibump.__file__).parents[1]
    code = ("import sys, multibump, multibump.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert proc.stdout.strip() == "False"
