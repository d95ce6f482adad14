"""Every decision in replhom is exact and deterministic: no seeds, no
randomness, no worker pools."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import replhom

SRC = Path(replhom.__file__).resolve().parent


def _modules():
    for info in pkgutil.iter_modules([str(SRC)]):
        yield importlib.import_module(f"replhom.{info.name}")


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (
                        attr == "__init__" or not attr.startswith("_")):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_a_seed():
    found = [qualname for module in _modules()
             for qualname, fn in _public_callables(module)
             if "seed" in inspect.signature(fn).parameters]
    assert found == []


def test_no_module_imports_randomness_or_pools():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names
                      if n.split(".")[0] in ("random", "concurrent")]
    assert found == []
