"""Exact analysis of periodic six-vertex configurations on a cylinder.

From closed lattice paths to weight-module matrices: components of the
cylinder minus the configuration, difference-operator representations with
exact radical coefficients, invariant indefinite inner products, and module
signatures computed two independent ways.
"""

from .configuration import VertexPath, from_paths
from .lattice import Lattice

__version__ = "0.1.0"
