"""cactusq: covering-path circuit synthesis for cactus-connected devices.

The top-level names are those the README's Python API example imports;
everything else is imported from its module."""

from .circuit_ir import to_qasm
from .covering_path import solve_cactus
from .graph_core import Graph
from .hash_synth import HashParams, find_good_set, synthesize_hash
from .qft_synth import synthesize_qft
from .verify_sim import equiv_up_to_permutation, qft_reference_unitary, unitary_of

__version__ = "0.1.0"
