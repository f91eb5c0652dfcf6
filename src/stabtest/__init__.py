"""Simulator and exact analytics for stabilizer testing of bipartite graph states."""

from .analytics import (
    ClassCounts,
    DomainError,
    conditional_fidelity,
    joint_prob,
    lemma_check,
    oracle,
    pass_prob,
    t_functionals,
    theorem1_bound,
    theorem1_verdict,
    trace_bound,
    xi,
)
from .gf2 import BitMatrix, BitVector, SingularMatrix
from .graphs import (
    BipartiteGraphState,
    edgeless_graph,
    grid_graph,
    path_graph,
    rhg_lattice,
)
from .pauli import BlockClass, BlockPauli
from .protocol import (
    AdversaryModel,
    ClassMixture,
    EstimateResult,
    Explicit,
    Honest,
    IidPauli,
    SingleBadCopy,
    Transcript,
    estimate,
    run_protocol,
    run_trials,
)
from .reduction import Reduction, compute_reduction

__version__ = "0.1.0"

__all__ = [
    "AdversaryModel",
    "BipartiteGraphState",
    "BitMatrix",
    "BitVector",
    "BlockClass",
    "BlockPauli",
    "ClassCounts",
    "ClassMixture",
    "DomainError",
    "EstimateResult",
    "Explicit",
    "Honest",
    "IidPauli",
    "Reduction",
    "SingleBadCopy",
    "SingularMatrix",
    "Transcript",
    "compute_reduction",
    "conditional_fidelity",
    "edgeless_graph",
    "estimate",
    "grid_graph",
    "joint_prob",
    "lemma_check",
    "oracle",
    "pass_prob",
    "path_graph",
    "rhg_lattice",
    "run_protocol",
    "run_trials",
    "t_functionals",
    "theorem1_bound",
    "theorem1_verdict",
    "trace_bound",
    "xi",
]
