"""freelip: extremal structure of the free-space unit ball over finite
metric spaces.

The library decides, by purely geometric criteria, which elementary
molecules u_pq = (j(p) - j(q)) / d(p,q) are extreme points of the unit
ball of the Lipschitz-free space over a finite pointed metric space, and
cross-validates every verdict against an independent exact-rational LP
oracle on the molecule polytope. Around this core it provides the
Lipschitz function-side toolkit (slopes, norm-preserving extension,
peaking functions, norm-attainment sets), generators for the reference
counterexample families, and depth-trend diagnostics for behavior that
only emerges in infinite limits.
"""

__version__ = "0.1.0"

import logging as _logging

# The library's logger is silent unless the application configures
# logging: a NullHandler keeps records off logging.lastResort, and no
# level or other handler is set (the logging HOWTO, "Configuring logging
# for a library").
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from .space import (
    EXACT,
    FLOAT,
    ExcessValue,
    FiniteMetricSpace,
    ModulusEntry,
    ModulusTable,
    SamePoint,
    SpaceError,
    ValidationError,
    Violation,
    aligned_triples,
    concavity_modulus,
    excess,
    holder_transform,
    metric_segment,
    strict_middles,
    validate,
)
from .classify import (
    ConcavityReport,
    PairVerdict,
    PropertyZResult,
    SequenceDiagnostics,
    UnknownFamily,
    classify_all,
    classify_pair,
    min_excess_ratio,
    property_z,
    sequence_diagnostics,
    strongly_exposed_verdict,
)
from .lipfun import (
    AttainmentSet,
    LipFunction,
    PeakingCertificate,
    attainment_set,
    lipschitz_constant,
    mcshane_extend,
    pairing,
    peaking_candidate,
    peaking_margin,
    phi,
)
from .polytope import (
    DecompositionReport,
    FreeVector,
    Molecule,
    VertexCertificate,
    decomposition_check,
    free_norm,
    is_vertex,
    molecule_vector,
)
from .generators import (
    FamilySpec,
    family_at_depths,
    gen_c0_counterexample,
    gen_l2_nonholder,
    gen_planar_spiral,
    gen_planar_spiral_one_sided,
)
from .formats import load_space, space_digest, space_from_dict, space_to_dict

__all__ = [name for name in dir() if not name.startswith("_")]
