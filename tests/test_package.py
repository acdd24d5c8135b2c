"""What `import cliquekit` and a catalog-free CLI command load, and what the
package exports."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from _helpers import subprocess_env

CATALOG_MODULES = {"cliquekit.identities", "cliquekit.conjectures"}

# Every public name of the package namespace once all of its modules are loaded.
EXPORTS = {
    "ALL_THEOREMS", "CHECKS", "CampaignConfig", "CampaignReport", "CheckTally", "Clique",
    "CliqueBudgetExceeded", "CliqueCatalog", "Counterexample", "EdgeRef", "Graph",
    "GraphFormatError", "IdentityReport", "IncidenceMatrix", "NotApplicable", "Polynomial",
    "RngSpec", "ShrunkForm", "Splitmix64", "TriangleDeletionCounts", "TriangleIdentityParts",
    "bits", "brute_force_counts", "check_conjecture1", "check_conjecture2",
    "check_conjecture3", "check_edge_deck_identity", "check_edge_recurrence",
    "check_first_derivative", "check_handshake", "check_kth_derivative_general",
    "check_second_derivative", "check_third_derivative_k5free",
    "check_triangle_deck_identity", "check_triangle_recurrence",
    "check_vertex_deck_identity", "check_vertex_recurrence", "clique_count",
    "clique_counts", "clique_counts_in", "clique_deletion_expansion", "clique_polynomial",
    "clique_value", "cliques", "common_neighborhood_bits",
    "complete_graph", "conjectures", "cycle_graph", "delete_edge", "delete_edge_set",
    "delete_vertex", "disjoint_union", "double_count", "edge", "edge_deck_matrix",
    "empty_graph", "enumerate_cliques", "graphs", "identities",
    "incidence", "induced_subgraph", "is_clique", "is_connected", "parse_edge_list",
    "parse_graph6", "path_graph", "poly_add", "poly_derivative", "poly_divided_derivative",
    "poly_equal", "poly_normalize", "poly_reverse", "poly_sub", "poly_sum", "random_gnp",
    "replay_counterexample", "resolve_checks", "run_campaign", "shrink_counterexample",
    "star_graph", "subclique_superclique_matrix", "to_graph6", "triangle_deck_matrix",
    "triangle_deletion_counts", "triangle_graph", "triangle_identity", "triangles",
    "vertex_deck_matrix",
}


def run_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=subprocess_env())


def test_import_leaves_the_catalog_unloaded():
    r = run_python("-c", "import json, sys, cliquekit; print(json.dumps(sorted(sys.modules)))")
    assert r.returncode == 0, r.stderr
    loaded = set(json.loads(r.stdout))
    assert {"cliquekit.graphs", "cliquekit.cliques", "cliquekit.incidence"} <= loaded
    assert not loaded & CATALOG_MODULES


def test_poly_command_leaves_the_catalog_unloaded():
    r = run_python("-X", "importtime", "-m", "cliquekit", "poly", "-g", "Bw")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["1 3 3 1", "omega 3"]
    imported = {line.rsplit("|", 1)[-1].strip() for line in r.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"cliquekit.cli", "cliquekit.graphs", "cliquekit.cliques"} <= imported
    assert not imported & CATALOG_MODULES


def test_every_export_resolves_as_attribute_and_by_from_import():
    script = (
        "import json, sys\n"
        "import cliquekit\n"
        "names = sys.argv[1:]\n"
        "by_attr = {n: getattr(cliquekit, n) for n in names}\n"
        "by_from = {}\n"
        "for n in names:\n"
        "    exec(f'from cliquekit import {n}', by_from)\n"
        "public = sorted(n for n in vars(cliquekit) if not n.startswith('_'))\n"
        "print(json.dumps({'same': all(by_from[n] is by_attr[n] for n in names),\n"
        "                  'all': sorted(cliquekit.__all__), 'dir': dir(cliquekit),\n"
        "                  'public': public}))\n"
    )
    r = run_python("-c", script, *sorted(EXPORTS))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["same"]
    assert set(out["all"]) == EXPORTS
    assert set(out["public"]) == EXPORTS
    assert set(out["dir"]) >= EXPORTS


def test_star_import_and_unknown_names():
    script = (
        "import cliquekit\n"
        "try:\n"
        "    cliquekit.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "ns = {}\n"
        "exec('from cliquekit import *', ns)\n"
        "print(sorted(n for n in ns if not n.startswith('_')) == sorted(cliquekit.__all__))\n"
    )
    r = run_python("-c", script)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["module 'cliquekit' has no attribute 'no_such_name'", "True"]


SRC = Path(__file__).resolve().parents[1] / "src" / "cliquekit"


def imported_names(tree):
    """(module, name) for each name a module imports, relative modules by
    their last part ('.identities' as 'identities')."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name.rsplit(".", 1)[-1], None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                if module in ("", "cliquekit"):  # from . import identities
                    yield alias.name, None
                else:
                    yield module, alias.name


def test_no_private_name_crosses_between_identities_and_conjectures():
    """Each identity is declared in identities, which knows nothing of
    campaigns; conjectures reads the catalog through public names only, and
    no module binds calls through inspect."""
    imports = {path.stem: list(imported_names(ast.parse(path.read_text())))
               for path in SRC.glob("*.py")}
    assert {"identities", "conjectures", "cli"} <= set(imports)
    assert [name for module, name in imports["conjectures"]
            if module == "identities" and name and name.startswith("_")] == []
    assert [name for module, name in imports["identities"] if module == "conjectures"] == []
    assert [stem for stem, names in imports.items()
            if any(module == "inspect" for module, _ in names)] == []


def test_identities_reads_cliques_through_its_counting_state():
    """identities reaches into cliques through five private names, one of
    them the graph's counting state and one the parser of a clique's ids
    into its mask, and reads no lane: the counting state packs, scales and
    reads its counts.  Graph.memo has one slot per layer
    that keeps state on a graph."""
    tree = ast.parse((SRC / "identities.py").read_text())
    private = {name for module, name in imported_names(tree)
               if module == "cliques" and name and name.startswith("_")}
    assert private == {"_PACKED_UNITS", "_clique_mask", "_counting", "_require_listing_budget",
                       "_stored_catalog"}
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "lane"] == []
    from cliquekit.graphs import _Memo

    assert _Memo.__slots__ == ("cliques", "identities")


def test_the_counting_state_splits_in_one_body():
    """_Counting.split is the only function that stores a split: the
    clique-deletion verdicts, the decks and the triangle checks call it, and
    no other module writes a graph's splits."""
    writers = set()
    for path in SRC.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                writers |= {(path.stem, func.name) for node in ast.walk(func)
                            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Attribute) and node.value.attr == "splits"}
    assert writers == {("cliques", "split")}


def test_each_kind_of_outside_value_is_checked_in_one_body():
    """Each kind of value that enters from outside the package (an integer,
    a vertex id, a vertex count, an edge probability, a seed) has one rule in
    graphs, the only function that raises that rule's message: every other
    entry point calls it, and no other module keeps a copy of it."""
    rules = {"must be an integer": "_integer", "out of range": "_vertex",
             "outside 0..{MAX_VERTICES}": "_vertex_count", "edge probability": "_probability",
             "outside 0..2**64-1": "_seed"}
    raisers = {message: set() for message in rules}
    defined = {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined[path.stem] = {node.name for node in ast.walk(tree)
                              if isinstance(node, ast.FunctionDef)}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for text in (ast.unparse(node) for node in ast.walk(func)
                             if isinstance(node, ast.Raise)):
                    for message in rules:
                        if message in text:
                            raisers[message].add((path.stem, func.name))
    assert raisers == {message: {("graphs", name)} for message, name in rules.items()}
    assert not defined["identities"] & {"_integer", "_parse_vertex"}
    assert "_require_type" not in defined["conjectures"]
