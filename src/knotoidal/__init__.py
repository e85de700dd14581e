"""Exact quantum invariants of biframed planar knotoids, and knot measures
of open 3D curves estimated by randomized projection.

The top level holds only the calls of README's Python API; every other
public name is imported from the module that defines it.
"""

from .diagram import fixtures, reverse_decomposition
from .invariant import compare, evaluate_Z
from .measure import dominant_knotoid, estimate_measure, load_curve
from .series import Caps

__version__ = "0.1.0"

__all__ = [
    "Caps", "compare", "dominant_knotoid", "estimate_measure",
    "evaluate_Z", "fixtures", "load_curve", "reverse_decomposition",
]
