"""Degree-power indices and extremal bipartite graphs with given connectivity.

The package computes the first and second degree-power indices (sum of
squared degrees; sum over edges of endpoint-degree products) of simple
graphs, exact vertex/edge connectivity with minimum-cut witnesses,
constructs the candidate extremal family of bipartite graphs, applies
index-increasing rewrites, and verifies the predicted maximizers by
exhaustive search at small order.

The public names are those of the modules' ``__all__`` lists.  Each module
is imported on first use of one of its names (PEP 562), so a caller that
only decodes graphs and computes connectivity loads ``graphs`` and
``connectivity`` and nothing else.
"""

from importlib import import_module

# the modules whose ``__all__`` lists make up the package's, in lookup order
_MODULES = ("graphs", "connectivity", "families", "transforms", "search")

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "__all__":
        value = [public for module in map(_module, _MODULES) for public in module.__all__]
    elif name in _MODULES:
        value = _module(name)
    else:
        owner = next((module for module in map(_module, _MODULES) if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    # bound here, the next lookup is a plain attribute read
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *(globals().get("__all__") or __getattr__("__all__"))})


def _module(short: str):
    return import_module(f".{short}", __name__)
