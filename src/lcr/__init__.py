"""List coloring reconfiguration toolkit.

Decide whether one proper list coloring can be turned into another by
recoloring a single vertex at a time, with every intermediate coloring
proper.  The package bundles an exhaustive oracle for small instances, a
sweep for caterpillar trees whose per-step cost follows the encoding size
(quadratic in n on 3-colour paths), a compiler from shortest-path rerouting
that yields bipartite, threshold-extensible hard instances, and the file
formats, generators, and CLI that tie them together.
"""

from .caterpillar_dp import (
    SizeRecord,
    check_size_bound,
    encoding_history,
    init_encoding,
    solve,
    step_leaf,
    step_spine,
)
from .encoding import EncodingGraph, label_preserving_isomorphic, validate_encoding
from .driver import ComponentReport, SolveReport, solve_driver
from .graph import (
    CaterpillarStructure,
    DecompositionCheck,
    Graph,
    PathDecomposition,
    check_path_decomposition,
    is_bipartite,
    is_partial_two_tree,
    recognize_caterpillar,
)
from .instance import (
    Coloring,
    LcrInstance,
    NormalizationTrace,
    RichListRemoval,
    SingletonRemoval,
    Step,
    induced_instance,
    is_proper_list_coloring,
    is_valid_sequence,
    lift_sequence,
    make_instance,
    normalize,
    restrict,
)
from .oracle import (
    DEFAULT_STATE_CAP,
    ReconfigurationGraph,
    build,
    component_of,
    contract_encoding,
    enumerate_colorings,
    oracle_decide,
    reachable,
)
from .reduction import (
    ForbiddenVertex,
    ReducedInstance,
    ThresholdWitness,
    coloring_to_spath,
    compile_spr,
    emit_path_decomposition,
    recoloring_to_spath_sequence,
    spath_sequence_to_recoloring,
    to_threshold,
)
from .rerouting import (
    SprInstance,
    adjacent_s_paths,
    brute_solve,
    build_spr_instance,
    compute_layers,
    enumerate_s_paths,
    is_s_path,
)

__version__ = "0.1.0"
