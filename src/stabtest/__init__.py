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


def _lazy(module: str, homes: dict[str, str], namespace: dict):
    """PEP 562 __getattr__ of module: a name of homes imports stabtest.<home>
    on its first read and keeps that module, or its attribute of the name, in
    namespace, so later reads do not come back."""
    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module '{module}' has no attribute '{name}'")
        imported = importlib.import_module(f"{__name__}.{home}")
        value = imported if home == name else getattr(imported, name)
        namespace[name] = value
        return value
    return __getattr__


__getattr__ = _lazy(__name__, _HOMES, globals())


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())
