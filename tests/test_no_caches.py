"""No module-level function of the program keeps a cache."""

import importlib
import pkgutil

import infgon


def test_no_module_level_function_is_cached():
    cached = []
    for info in pkgutil.iter_modules(infgon.__path__):
        module = importlib.import_module(f"infgon.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                cached.append(f"{info.name}.{name}")
    assert cached == []
