"""Homological dimensions of almost gentle algebras given as bound quivers.

Closed-form global and self-injective dimensions via forbidden paths, with
symbolic syzygies, a cross-validating exact-linear-algebra oracle, the .agq
file format, and a CLI (``agq``).

The symbolic resolutions (``syzygy``), the oracle with its ``linalg`` and
the ``generator`` are registered here but run only when first used: the
closed-form commands never need them.  Their public names still resolve as
``agq.NAME``.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec


def _deferred(name: str):
    """The submodule agq.name, in sys.modules, whose body runs on first attribute access."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# registered before the eager imports below, so that none loads them early
syzygy = _deferred("syzygy")
linalg = _deferred("linalg")
oracle = _deferred("oracle")
generator = _deferred("generator")

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

__version__ = "0.1.0"

# the deferred modules' public names, each read from its module on access
_DEFERRED_NAMES = {
    **dict.fromkeys((
        "Psi0Descriptor", "Resolution", "Summand", "SyzygyDecomposition", "is_invalid_vertex",
        "psi0_descriptor", "resolve_symbolic"), syzygy),
    **dict.fromkeys((
        "AgreementReport", "PdimResult", "Representation", "RepMorphism", "check_against_formulas",
        "check_relations", "cover_morphism", "oracle_pdim", "projective_cover_kernel", "rep_of"),
        oracle),
}


def __getattr__(name: str):
    module = _DEFERRED_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
