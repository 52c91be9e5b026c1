"""cactusq: covering-path circuit synthesis for cactus-connected devices."""

from .graph_core import (
    BlockTree,
    CycleDecomposition,
    Graph,
    GraphError,
    GraphFormatError,
    NotACactus,
    NotConnected,
    WeightedVertexCactus,
    build_block_tree,
    build_vertex_cactus,
    dump_graph,
    graph_from_json_dict,
    graph_to_json_dict,
    load_graph,
    random_cactus,
    validate_cactus,
)
from .covering_path import (
    CoveringPath,
    TooLarge,
    brute_force_oracle,
    brute_force_visit_all,
    solve_cactus,
)
from .circuit_ir import (
    Circuit,
    CostReport,
    DeviceViolation,
    Gate,
    cancel_adjacent_cnots,
    circuit_from_json_dict,
    circuit_to_json_dict,
    cnot_cost,
    decompose,
    dump_circuit,
    load_circuit,
    to_qasm,
)
from .verify_sim import (
    TooManyQubits,
    check_good_set,
    equiv_up_to_permutation,
    modp_accept_probability,
    modp_closed_form,
    qft_matrix,
    qft_reference_unitary,
    statevector,
    unitary_of,
)
from .hash_synth import (
    HashParams,
    HashSynthesisResult,
    PathNotCovering,
    SearchExhausted,
    build_modp_automaton,
    construct_for_path,
    find_good_set,
    hash_reference_circuit,
    synthesize_hash,
    theorem1_cost,
)
from .qft_synth import (
    CascadePlan,
    CascadeRecord,
    DisconnectedRemainder,
    cascade_for_path,
    construct_s,
    synthesize_qft,
)

__version__ = "0.1.0"
