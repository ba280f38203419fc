"""Numerical toolkit for cyclic proximity systems.

Distances over point chains and region chains, contraction certification,
Picard-orbit diagnostics and solvers, a gallery of systems with known
answers, and a batch CLI.
"""

import types

from .chains import chain_point_distance, chain_self_distance, chain_set_distance
from .gallery import (
    GALLERY,
    GallerySpec,
    GallerySystem,
    attainment_gap,
    build,
    list_gallery,
    make_affine_strip,
    make_kirk_interval,
    make_paper_lq_family,
    make_scaled_pair,
)
from .orbit import (
    BoundednessReport,
    OrbitTrace,
    ProximityChainResult,
    SolveResult,
    apriori_error_bound,
    banach_solve,
    block_drift_trace,
    boundedness_probe,
    chain_trace,
    cross_block_chain_distance,
    edge_trace,
    periodic_point_solve,
    picard_orbit,
    proximity_chain_extract,
    trace_rows,
)
from .spaces import (
    INFINITY,
    CapabilityError,
    Exponent,
    LqSpace,
    MetricReport,
    OracleSpace,
    Point,
    Space,
    as_exponent,
    check_point,
    p_combine,
    validate_metric,
)
from .system import (
    AlphaBoundResult,
    Ball,
    Box,
    ContractionCertificate,
    CyclicityReport,
    CyclicSystem,
    FiniteCloud,
    LinearPhi,
    MapError,
    Phi,
    PhiReport,
    Region,
    TabulatedPhi,
    alpha_bound_check,
    contraction_margin,
    region_distance,
    validate_phi,
    verify_contraction,
    verify_cyclicity,
)

__version__ = "0.1.0"

# Derived, so the imports above are the one statement of the public API.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
