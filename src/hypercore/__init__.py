"""Hypergraph activation cores: propagation semantics, search, certification.

The package models seed-set activation on hypergraphs (an edge fires once
enough of its vertices are active and then activates the rest), finds
minimum seed sets with the fewest activation rounds, converts them to and
from incremental edge orderings, compiles covering and CNF problems into
equivalent instances, and cross-checks everything against exhaustive
searches on small inputs.
"""

from .bounds import (
    BoundReport,
    bound_report,
    degree_radius_bound,
    diameter_radius_bound,
    layer_distance_check,
    neighbor_radius_bound,
)
from .filtration import (
    Filtration,
    core_to_filtration,
    filtration_radius,
    filtration_to_core,
    validate_filtration,
)
from .hypergraph import (
    HceParseError,
    Hypergraph,
    diameter,
    generate_random,
    read_instance,
    read_vertex_set,
    write_instance,
    write_vertex_set,
)
from .mincore import (
    MinCoreResult,
    NoCoreOfSizeNM,
    NotFoundWithin,
    PeelResult,
    mincore_fpt,
    peel_nm,
)
from .oracle import (
    BudgetExceededError,
    OracleBudget,
    oracle_best_radius_at_size,
    oracle_min_core,
    oracle_min_radius_over_min_cores,
    oracle_minrep,
    oracle_sat,
    oracle_setcover,
    reference_is_core,
)
from .propagation import (
    NotACoreError,
    PropagationTrace,
    assimilated_closure,
    is_core,
    propagate,
    trace_report,
)
from .reductions import (
    CnfFormula,
    MinrepInstance,
    SetCoverInstance,
    core_to_minrep,
    core_to_setcover,
    minrep_to_mincore,
    setcover_to_mincore,
    setcover_to_mincore_3uniform,
    threesat_to_mincore_radius,
    threshold_add_per_edge,
    threshold_add_shared,
    triangulate_edge,
)

__version__ = "0.1.0"
