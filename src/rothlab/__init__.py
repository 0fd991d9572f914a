"""Sign structure of smallest signless-Laplacian eigenvectors over an independent set."""

__version__ = "0.1.0"

from .graphs import (
    CompositeInstance,
    complement,
    complete_bipartite,
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
    join,
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
    ReducedMatrix,
    alpha_of,
    build_q_mu,
    build_r_mu,
    decide_instance,
    decide_stack,
    harmonic_witness,
    is_complete_scaffold,
    oracle_stack,
    s_roth_oracle,
)
from .bounds import (
    InverseBoundReport,
    bai_golub_trace_bounds,
    cycle_block_bounds,
    path_block_rowsums,
)
from .enumeration import all_graphs, all_trees, enumerate_connected_bipartite
from .census import (
    CensusRow,
    conjecture_sweep,
    run_census,
    ultra_roth_probe,
)
