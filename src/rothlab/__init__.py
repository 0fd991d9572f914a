"""Sign structure of smallest signless-Laplacian eigenvectors over an independent set."""

__version__ = "0.1.0"

from .graphs import (
    CompositeInstance,
    complete_graph,
    compose,
    connected_components,
    cycle_graph,
    decode_graph6,
    empty_graph,
    encode_graph6,
    instance_from_graph,
    instance_to_json,
    is_connected,
    join_decomposition,
    parse_edge_list,
    parse_graph6,
    path_graph,
)
from .spectra import (
    EigenSystem,
    EigensolverError,
    SmallestEigenpair,
    exact_kernel_dim,
    full_spectrum,
    integer_candidate,
    mu_lower_bound_degrees,
    mu_upper_bound_cut,
    signless_laplacian,
    smallest_eigenpair,
)
from .analysis import (
    Decisions,
    alpha_of,
    decide_instance,
    decide_stack,
    is_complete_scaffold,
    oracle_stack,
    s_roth_oracle,
)
from .enumeration import all_graphs, all_trees, enumerate_connected_bipartite
from .census import (
    CensusRow,
    conjecture_sweep,
    run_census,
    ultra_roth_probe,
)
