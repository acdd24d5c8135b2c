"""cliquekit: exact clique polynomials, clique incidence matrices, identity
verification, and conjecture fuzzing for graphs on up to 64 vertices.

`import cliquekit` loads graphs, cliques and incidence.  The names of
identities and conjectures are exported as well but imported on first
access, so the check catalog is built only by code that reads it.
"""

from .graphs import (
    Graph,
    EdgeRef,
    GraphFormatError,
    RngSpec,
    Splitmix64,
    bits,
    common_neighborhood_bits,
    complete_graph,
    cycle_graph,
    delete_edge,
    delete_edge_set,
    delete_vertex,
    disjoint_union,
    edge,
    empty_graph,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    parse_graph6,
    path_graph,
    random_gnp,
    star_graph,
    to_graph6,
    triangle_graph,
    triangles,
)
from .cliques import (
    Clique,
    CliqueBudgetExceeded,
    CliqueCatalog,
    Polynomial,
    brute_force_counts,
    clique_count,
    clique_counts,
    clique_counts_in,
    clique_polynomial,
    clique_value,
    enumerate_cliques,
    is_clique,
    poly_add,
    poly_derivative,
    poly_divided_derivative,
    poly_equal,
    poly_normalize,
    poly_reverse,
    poly_sub,
    poly_sum,
)
from .incidence import (
    IncidenceMatrix,
    double_count,
    edge_deck_matrix,
    subclique_superclique_matrix,
    triangle_deck_matrix,
    vertex_deck_matrix,
)

__version__ = "0.1.0"

# The names of identities and conjectures, resolved by __getattr__ (PEP 562).
_LAZY = {
    "identities": (
        "IdentityReport",
        "NotApplicable",
        "TriangleDeletionCounts",
        "TriangleIdentityParts",
        "check_conjecture1",
        "check_conjecture2",
        "check_conjecture3",
        "check_edge_deck_identity",
        "check_edge_recurrence",
        "check_first_derivative",
        "check_handshake",
        "check_kth_derivative_general",
        "check_second_derivative",
        "check_third_derivative_k5free",
        "check_triangle_deck_identity",
        "check_triangle_recurrence",
        "check_vertex_deck_identity",
        "check_vertex_recurrence",
        "clique_deletion_expansion",
        "triangle_deletion_counts",
        "triangle_identity",
    ),
    "conjectures": (
        "ALL_THEOREMS",
        "CHECKS",
        "CampaignConfig",
        "CampaignReport",
        "CheckTally",
        "Counterexample",
        "ShrunkForm",
        "replay_counterexample",
        "resolve_checks",
        "run_campaign",
        "shrink_counterexample",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | set(_LAZY) | set(_LAZY_HOME)
)


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f"{__name__}.{name}")  # the import binds the submodule here
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_LAZY_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
