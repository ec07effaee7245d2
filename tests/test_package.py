"""The package's public API: exactly the union of its modules' ``__all__``."""

import importlib

import j6opt

MODULES = ("attribution", "model", "optimizer", "probgen", "serialize", "strategies")


def test_exports_exactly_the_modules_public_names():
    union = [name for m in MODULES for name in importlib.import_module(f"j6opt.{m}").__all__]
    assert len(union) == len(set(union)), "a name is public in two modules"
    assert sorted(j6opt.__all__) == sorted(union)
    for m in MODULES:
        module = importlib.import_module(f"j6opt.{m}")
        for name in module.__all__:
            assert getattr(j6opt, name) is getattr(module, name), (m, name)


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from j6opt import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(j6opt.__all__)
