"""List coloring reconfiguration toolkit.

Decide whether one proper list coloring can be turned into another by
recoloring a single vertex at a time, with every intermediate coloring
proper.  The package bundles an exhaustive oracle for small instances, a
sweep for caterpillar trees whose per-step cost follows the encoding size
(quadratic in n on 3-colour paths), a linear-time height argument that
decides components whose lists lie within three colours, a compiler from
shortest-path rerouting that yields bipartite, threshold-extensible hard
instances, and the file formats, generators, and CLI that tie them
together.

The names below are the ones the README and the demos use; everything else
is imported from its module.
"""

from .caterpillar_dp import check_size_bound, encoding_history
from .driver import solve_driver
from .graph import (
    Graph,
    check_path_decomposition,
    is_bipartite,
    is_partial_two_tree,
    recognize_caterpillar,
)
from .instance import (
    RichListRemoval,
    SingletonRemoval,
    is_valid_sequence,
    lift_sequence,
    make_instance,
    normalize,
)
from .oracle import build, component_of, oracle_decide, reachable
from .reduction import (
    compile_spr,
    emit_path_decomposition,
    recoloring_to_spath_sequence,
    spath_sequence_to_recoloring,
    to_threshold,
)
from .rerouting import (
    brute_solve,
    build_spr_instance,
    compute_layers,
    enumerate_s_paths,
)

__version__ = "0.1.0"
