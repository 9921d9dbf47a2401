"""Lazy package exports: a package's public names, imported on first use.

It imports nothing from ``repro``, so every package may use it, the
root package included.
"""

import importlib


def lazy_exports(namespace: dict, sources: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__``, ``__dir__`` and the sorted export list of a
    package whose exports live in submodules (``sources``: module ->
    names).  A name's module is imported on its first access and the value
    cached in ``namespace``, so importing one submodule -- a spawned real
    worker imports only ``repro.exec.worker`` -- does not load the
    simulator and numpy."""
    origin = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(origin[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted(origin)
