"""Homological dimensions of almost gentle algebras given as bound quivers.

Closed-form global and self-injective dimensions via forbidden paths, with
symbolic syzygies, a cross-validating exact-linear-algebra oracle, the .agq
file format, and a CLI (``agq``).
"""

from .quiver import (
    AgqError,
    AlmostGentlePair,
    Arrow,
    InvalidStringError,
    NotValidatedError,
    Quiver,
    UnknownArrowError,
    UnknownVertexError,
    ValidationReport,
    Violation,
    nonzero_successor,
    opposite,
    validate_bound_quiver,
    vertex_type,
)
from .strings import (
    DirectedString,
    anticlaw_of,
    claw_of,
    left_maximal_extension,
    module_dims,
    right_maximal_extension,
    socle_supports,
    string_of,
)
from .forbidden import (
    ForbiddenWalk,
    LengthOrInf,
    delta_forbidden_sup,
    forbidden_cycles,
    sup_forbidden_from_arrow,
    sup_forbidden_from_vertex,
    zero_length_forbidden,
)
from .syzygy import (
    NotInjectiveCaseError,
    Psi0Descriptor,
    Resolution,
    Summand,
    SyzygyDecomposition,
    is_gentle_vertex,
    is_invalid_vertex,
    omega1_directed_string,
    omega1_injective,
    psi0_decompose,
    psi0_descriptor,
    psi0_dim_vector,
    resolve_symbolic,
)
from .homdim import (
    DimReport,
    GorensteinReport,
    global_dimension,
    gorenstein_report,
    noninvalid_cycle_vertex,
    pdim_directed_string,
    pdim_injective,
    pdim_injective_envelope,
    pdim_simple,
    self_injective_dimension,
    self_injective_infinite_by_cycle,
)
from .oracle import (
    AgreementReport,
    PdimResult,
    Representation,
    RepMorphism,
    check_against_formulas,
    check_relations,
    cover_morphism,
    oracle_pdim,
    projective_cover_kernel,
    rep_of,
)

__version__ = "0.1.0"
