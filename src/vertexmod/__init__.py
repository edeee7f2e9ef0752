"""Exact analysis of periodic six-vertex configurations on a cylinder.

From closed lattice paths to weight-module matrices: components of the
cylinder minus the configuration, difference-operator representations with
exact radical coefficients, invariant indefinite inner products, and module
signatures computed two independent ways.
"""

from .configfile import ConfigFile, ParseError, parse, serialize
from .configuration import (
    Configuration,
    VertexPath,
    flip_corner,
    from_edges,
    from_paths,
    max_area_path,
    random_config,
)
from .lattice import Edge, Face, Lattice, Vertex
from .linalg import MonomialMat
from .representation import (
    ModuleRep,
    balanced_words,
    build_module,
    casimir,
    check_order_product,
    crossing_order,
    loop_matrix,
    order_product,
    order_support,
    path_poly_product,
    path_sqrt_product,
    verify_relations,
    word_matrix,
)
from .scalar import Radical, squarefree_decompose
from .topology import (
    ColoringConflictError,
    Component,
    Overlay,
    Subcomponent,
    components,
    eight_vertex_violations,
    internal_elements,
    overlay,
    subcomponents,
)
from .unitarity import (
    SignTable,
    adjoint_matrix,
    check_sign_consistency,
    dual_invariants,
    face_sign,
    gram_diag,
    gram_matrix,
    path_phase2,
    signature_coloring,
    signature_direct,
    signature_window,
    unitarizability_report,
    verify_invariance,
)

__version__ = "0.1.0"
