"""Degree-power indices and extremal bipartite graphs with given connectivity.

The package computes the first and second degree-power indices (sum of
squared degrees; sum over edges of endpoint-degree products) of simple
graphs, exact vertex/edge connectivity with minimum-cut witnesses,
constructs the candidate extremal family of bipartite graphs, applies
index-increasing rewrites, and verifies the predicted maximizers by
exhaustive search at small order.

The public names are those of the modules' ``__all__`` lists.
"""

from .graphs import *
from .connectivity import *
from .families import *
from .transforms import *
from .search import *

# each star import above also binds its submodule in this package
__all__ = [*graphs.__all__, *connectivity.__all__, *families.__all__, *transforms.__all__, *search.__all__]

__version__ = "0.1.0"
