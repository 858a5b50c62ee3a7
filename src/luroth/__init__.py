"""Exact-arithmetic toolkit for Poncelet jumping-line curves and nodal
plane quartics (associated conic, type classification, tangent map)."""

from .forms import (
    BinaryForm,
    FrozenError,
    HomogeneityError,
    ParseError,
    PreconditionError,
    TernaryForm,
    form_from_json,
    parse_form,
)
from .linalg import (
    LinearSolution,
    PolyMatrix,
    conic_det3,
    disc_binary_quadratic,
    solve_linear,
    sylvester_resultant,
)
from .nodal import (
    AssociatedConicData,
    NodalQuarticAnalysis,
    NodeDecomposition,
    NodeReport,
    TangentMapResult,
    associated_conic,
    classify,
    normalize_at_node,
    quartic_from_conic_and_cubic,
    residual_line_identity,
    tangent_map,
    verify_node,
)
from .poncelet import (
    ConicParam,
    PonceletPencil,
    chord_dual,
    family_matrix,
    is_base_point_free,
    is_jumping_line,
    jumping_chords,
    make_conic,
    poncelet_curve,
    poncelet_matrix,
    singular_jump_criterion,
    standard_conic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
