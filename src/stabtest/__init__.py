"""Simulator and exact analytics for stabilizer testing of bipartite graph states.

A top-level name, or a submodule such as ``stabtest.protocol``, imports its
module on first use (PEP 562), so a command loads only the layers it runs.
"""

import importlib

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

# The module each public name is defined in, and each public submodule itself.
_HOMES = {
    **dict.fromkeys(
        ("ClassCounts", "ClassMixture", "DomainError", "conditional_fidelity", "joint_prob", "lemma_check",
         "oracle", "pass_prob", "t_functionals", "theorem1_bound", "theorem1_verdict", "trace_bound", "xi"),
        "analytics",
    ),
    **dict.fromkeys(("BitMatrix", "BitVector", "SingularMatrix"), "gf2"),
    **dict.fromkeys(("BipartiteGraphState", "edgeless_graph", "grid_graph", "path_graph", "rhg_lattice"), "graphs"),
    **dict.fromkeys(("BlockClass", "BlockPauli"), "pauli"),
    **dict.fromkeys(
        ("AdversaryModel", "EstimateResult", "Explicit", "Honest", "IidPauli", "SingleBadCopy", "Transcript",
         "estimate", "run_protocol", "run_trials"),
        "protocol",
    ),
    **dict.fromkeys(("Reduction", "compute_reduction"), "reduction"),
    **{module: module for module in ("analytics", "cli", "gf2", "graphs", "pauli", "protocol", "reduction")},
}


def __getattr__(name: str):
    """Import the home module of a public name on its first read, and keep
    the value here, so later reads do not come back."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module '{__name__}' has no attribute '{name}'")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())
