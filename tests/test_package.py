"""The package's public API: exactly the union of its modules' ``__all__``,
and the names the benchmark and the tools reach it through."""

import importlib

import j6opt

MODULES = ("attribution", "model", "optimizer", "probgen", "serialize", "strategies")

# By module, each name that benchmarks/j6bench/workloads.py, tools/ab.py or
# tools/parity.py imports or reads, and each target of the benchmark's
# tracing hooks.  Those files run against other checkouts too, so a name
# that goes breaks them without failing any other test here.
USED_ELSEWHERE = {
    "j6opt": ("__version__", "AlignmentMode", "GeneratorSpec", "RunConfig", "StrategyConfig",
              "StrategyKind", "WMode", "generate", "run", "run_many", "write_trace"),
    "j6opt.cli": ("main", "cmd_gen", "cmd_gradcheck", "cmd_run", "cmd_compare", "cmd_sweep",
                  "run", "generate", "fd_gradient", "save_instance", "load_instance",
                  "write_trace", "write_summary", "conflict_certificate",
                  "roleswap_certificate"),
    "j6opt.model": ("ProblemInstance",),
    "j6opt.optimizer": ("RunConfig", "run", "run_many", "stop_check"),
    "j6opt.probgen": ("ROLESWAP_RATIO_MAX", "Family", "GeneratorSpec", "ProblemInstance",
                      "conflict_certificate", "generate", "roleswap_certificate"),
    "j6opt.serialize": ("load_instance", "save_instance", "write_trace"),
    "j6opt.strategies": ("StrategyConfig",),
}


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


def test_names_the_benchmark_and_tools_use_resolve():
    missing = [f"{module}.{name}" for module, names in USED_ELSEWHERE.items()
               for name in names if not hasattr(importlib.import_module(module), name)]
    assert missing == []
