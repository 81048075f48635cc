"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

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
