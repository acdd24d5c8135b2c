import dataclasses
import hashlib
import itertools
import json
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import cliquekit.cliques
import cliquekit.conjectures
import cliquekit.graphs
import cliquekit.identities
from cliquekit import (
    ALL_THEOREMS,
    CHECKS,
    IdentityReport,
    complete_graph,
    edge_deck_matrix,
    subclique_superclique_matrix,
    to_graph6,
    triangle_deck_matrix,
    vertex_deck_matrix,
)
from cliquekit import cli
from cliquekit.cli import main
from cliquekit.cliques import LISTING_BUDGET
from cliquekit.graphs import bits

from _helpers import (
    forbid_calls, record_calls, record_campaign_graphs, record_listings, run_cli, run_main,
)

K4_G6 = to_graph6(complete_graph(4))
K5_G6 = to_graph6(complete_graph(5))
K6_G6 = to_graph6(complete_graph(6))
K64_G6 = to_graph6(complete_graph(64))


class TestPoly:
    def test_triangle(self):
        # the `python -m cliquekit` entry point, in its own process; the other
        # tests here call cli.main in this one
        r = run_cli("poly", "-g", "Bw")
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["1 3 3 1", "omega 3"]

    def test_derivative(self):
        r = run_main("poly", "-g", "Bw", "--derivative", "1")
        assert r.returncode == 0
        assert r.stdout == "3 6 3\n"

    def test_divided_second_derivative(self):
        r = run_main("poly", "-g", K4_G6, "--derivative", "2")
        assert r.stdout == "6 12 6\n"

    def test_reversed(self):
        r = run_main("poly", "-g", "A_", "--reversed")  # K2
        assert r.stdout == "1 2 1\n"
        r = run_main("poly", "-g", "A_", "--reversed", "--with-unit")
        assert r.stdout == "2 2 1\n"

    @pytest.mark.parametrize("args, flag", [
        (("--with-unit",), "--with-unit"),
        (("--derivative", "1", "--with-unit"), "--with-unit"),
        (("--derivative", "1", "--reversed"), "--reversed"),
    ])
    def test_ignored_flag_is_a_usage_error(self, args, flag):
        r = run_main("poly", "-g", "Bw", *args)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error:" in r.stderr and flag in r.stderr

    def test_derivative_order_below_one_is_a_usage_error(self, capsys):
        assert main(["poly", "-g", "Bw", "--derivative", "0"]) == 2
        assert capsys.readouterr() == ("", "error: derivative order must be >= 1\n")

    def test_parse_error_exit_code(self):
        r = run_main("poly", "-g", "??bad")
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_stdin_fallback(self):
        r = run_main("poly", stdin="Bw\n")
        assert r.returncode == 0
        assert r.stdout.splitlines()[0] == "1 3 3 1"

    def test_edge_list_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n0 1\n1 2\n0 2\n")
        r = run_main("poly", "-i", str(path))
        assert r.stdout.splitlines()[0] == "1 3 3 1"


class TestMatrix:
    def test_vertex_edge_incidence_csv(self):
        r = run_main("matrix", "-g", "Bw", "--kind", "super", "--k", "1")
        assert r.returncode == 0
        assert r.stdout == (
            ",0-1,0-2,1-2,row_sum\n"
            "0,1,1,0,2\n"
            "1,1,0,1,2\n"
            "2,0,1,1,2\n"
            "col_sum,2,2,2,6\n"
        )

    def test_triangle_deck_on_k4_is_zero(self):
        r = run_main("matrix", "-g", K4_G6, "--kind", "tdeck", "--k", "3", "--format", "json")
        data = json.loads(r.stdout)
        assert data["matrix"] == [[0] * 4] * 4
        assert data["double_count"] == [0, 0]

    def test_oversized_k_gives_empty_matrix(self):
        r = run_main("matrix", "-g", "Bw", "--kind", "super", "--k", "9")
        assert r.returncode == 0
        assert "col_sum,0" in r.stdout

    def test_invalid_kind_rejected(self):
        r = run_main("matrix", "-g", "Bw", "--kind", "bogus", "--k", "1")
        assert r.returncode == 2

    def test_invalid_k_for_kind(self):
        r = run_main("matrix", "-g", "Bw", "--kind", "edeck", "--k", "1")
        assert r.returncode == 2

    # gen 40 0.85 3 has 36 685 4-cliques, 142 276 5-cliques and 6 276 triangles
    @pytest.mark.parametrize("kind, cols", [("super", 142276), ("tdeck", 6276)])
    def test_oversized_matrix_is_a_usage_error(self, kind, cols):
        g6 = run_main("gen", "40", "0.85", "3").stdout.strip()
        r = run_main("matrix", "-g", g6, "--kind", kind, "--k", "4")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == [
            f"error: the {kind} matrix of order 4 would have 36685 x {cols} = {36685 * cols} "
            f"cells, over the limit of {cli.MATRIX_CELL_LIMIT}"
        ]

    def test_cell_limit_is_inclusive(self, monkeypatch, capsys):
        # the vertex-edge incidence matrix of a triangle has 3 x 3 cells
        argv = ["matrix", "-g", "Bw", "--kind", "super", "--k", "1"]
        monkeypatch.setattr(cli, "MATRIX_CELL_LIMIT", 9)
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(",0-1,0-2,1-2,row_sum\n")
        monkeypatch.setattr(cli, "MATRIX_CELL_LIMIT", 8)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: the super matrix of order 1 would have "
                                           "3 x 3 = 9 cells, over the limit of 8\n")

    @pytest.mark.parametrize("kind, k, message", [
        ("super", -1, "order k must be >= 1"), ("vdeck", 0, "order k must be >= 1"),
        ("edeck", 1, "order k must be >= 2"), ("tdeck", 2, "order k must be >= 3"),
    ])
    def test_an_invalid_order_is_refused_by_the_builder(self, kind, k, message, monkeypatch,
                                                         capsys):
        monkeypatch.setattr(cli, "MATRIX_CELL_LIMIT", 0)
        assert main(["matrix", "-g", K4_G6, "--kind", kind, "--k", str(k)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("kind, build, low", [
        ("super", subclique_superclique_matrix, 1), ("vdeck", vertex_deck_matrix, 1),
        ("edeck", edge_deck_matrix, 2), ("tdeck", triangle_deck_matrix, 3),
    ])
    def test_every_order_below_the_smallest_fails_alike(self, kind, build, low, capsys):
        """The public builder and `matrix` refuse each order below the
        kind's smallest with one text; the CLI exits 2."""
        for k in range(-1, low):
            with pytest.raises(ValueError) as info:
                build(complete_graph(4), k)
            assert str(info.value) == f"order k must be >= {low}"
            assert main(["matrix", "-g", K4_G6, "--kind", kind, "--k", str(k)]) == 2
            assert capsys.readouterr() == ("", f"error: {info.value}\n")

    # K5 has 10 edges, 10 triangles and 5 vertices
    @pytest.mark.parametrize("kind, k, cols", [("super", 2, 10), ("vdeck", 2, 5),
                                               ("edeck", 2, 10), ("tdeck", 3, 10)])
    def test_each_kind_states_its_cells_over_the_limit(self, kind, k, cols, monkeypatch, capsys):
        argv = ["matrix", "-g", K5_G6, "--kind", kind, "--k", str(k)]
        monkeypatch.setattr(cli, "MATRIX_CELL_LIMIT", 10 * cols)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "MATRIX_CELL_LIMIT", 10 * cols - 1)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: the {kind} matrix of order {k} would have "
                                           f"10 x {cols} = {10 * cols} cells, over the limit "
                                           f"of {10 * cols - 1}\n")


class TestVerify:
    def test_all_theorems_on_triangle(self):
        r = run_main("verify", "-g", "Bw", "--all-theorems")
        assert r.returncode == 0
        assert "holds=false" not in r.stdout
        assert "vertex_recurrence" in r.stdout

    def test_conjecture_failure_does_not_fail_exit(self):
        r = run_main("verify", "-g", K4_G6, "--identity", "conjecture3")
        assert r.returncode == 0
        assert "holds=false" in r.stdout
        assert "lhs=[4, 4]" in r.stdout

    def test_unknown_identity(self):
        r = run_main("verify", "-g", "Bw", "--identity", "nosuch")
        assert r.returncode == 2

    def test_json_reports_validate(self):
        r = run_main("verify", "-g", K4_G6, "--identity", "triangle_identity",
                     "--format", "json")
        reports = json.loads(r.stdout)
        assert len(reports) == 4
        for rep in reports:
            assert set(rep) == {"identity", "graph6", "params", "lhs", "rhs", "holds"}
            assert rep["holds"] is True

    def test_explicit_vertex_parameter(self):
        r = run_main("verify", "-g", "Bw", "--identity", "vertex_recurrence", "--v", "1")
        assert r.stdout.count("vertex_recurrence") == 1
        assert '"v": 1' in r.stdout

    def test_explicit_delta_parameter(self):
        r = run_main("verify", "-g", K4_G6, "--identity", "triangle_identity",
                     "--delta", "0-1-3")
        assert r.stdout.count("triangle_identity") == 1
        assert "holds=true" in r.stdout

    def test_comma_separated_ids(self):
        r = run_main("verify", "-g", "Bw", "--identity", "handshake,conjecture3")
        assert "handshake" in r.stdout and "conjecture3" in r.stdout

    def test_edge_subsets_reading_is_a_finding(self):
        r = run_main("verify", "-g", K4_G6, "--identity", "clique_deletion_edge_subsets",
                     "--clique", "0-1-2-3")
        assert r.returncode == 0
        assert r.stdout.count("\n") == 1
        assert "holds=false" in r.stdout

    def test_interpretation_option_rejected(self):
        r = run_main("verify", "-g", K4_G6, "--identity", "clique_deletion",
                     "--clique", "0-1-2-3", "--interpretation", "edge-subsets")
        assert r.returncode == 2
        assert r.stdout == ""

    def test_clique_outside_the_graph_is_a_usage_error(self):
        r = run_main("verify", "-g", "Bw", "--identity", "clique_deletion", "--clique", "9-10")
        assert r.returncode == 2
        assert "error:" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("name", ["clique_deletion", "clique_deletion_edge_subsets"])
    def test_one_vertex_clique_outside_the_graph_is_a_usage_error(self, name):
        r = run_main("verify", "-g", "Bw", "--identity", name, "--clique", "9")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error:" in r.stderr and "out of range" in r.stderr

    @pytest.mark.parametrize("name", ["clique_deletion", "clique_deletion_edge_subsets"])
    def test_non_clique_is_a_usage_error(self, name):
        r = run_main("verify", "-g", "Dhc", "--identity", name, "--clique", "0-1-2")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error:" in r.stderr and "not a clique" in r.stderr

    @pytest.mark.parametrize("name, flag", [
        ("handshake", ("--delta", "9-9-9")),
        ("first_derivative", ("--with-unit",)),
    ])
    def test_flag_no_selected_check_takes_is_a_usage_error(self, name, flag):
        r = run_main("verify", "-g", "Bw", "--identity", name, *flag)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error:" in r.stderr and flag[0] in r.stderr

    @pytest.mark.parametrize("selection, k", [
        (("--identity", "handshake"), "0"),
        (("--identity", "edge_deck"), "1"),
        (("--identity", "triangle_deck,edge_deck"), "1"),
        (("--identity", "first_derivative"), "2"),
        (("--all-theorems",), "0"),
    ])
    def test_k_no_selected_check_takes_is_a_usage_error(self, selection, k, capsys):
        assert main(["verify", "-g", "Bw", *selection, "--k", k]) == 2
        assert capsys.readouterr() == ("", f"error: --k {k} is not taken by any selected check\n")

    def test_k_above_the_clique_number_is_valid(self, capsys):
        assert main(["verify", "-g", "Bw", "--identity", "handshake", "--k", "9"]) == 0
        assert capsys.readouterr() == ("", "")

    def test_k_taken_by_one_selected_check(self, capsys):
        assert main(["verify", "-g", "Bw", "--identity", "edge_deck,handshake", "--k", "1"]) == 0
        out, err = capsys.readouterr()
        assert [line.split()[0] for line in out.splitlines()] == ["handshake"]
        assert err == ""

    def test_all_theorems_with_a_vertex_flag(self):
        default = run_main("verify", "-g", "Bw", "--all-theorems")
        r = run_main("verify", "-g", "Bw", "--all-theorems", "--v", "1")
        assert r.returncode == 0
        assert r.stdout.count("vertex_recurrence") == 1
        assert '"v": 1' in r.stdout
        others = [line for line in default.stdout.splitlines()
                  if not line.startswith("vertex_recurrence")]
        assert [line for line in r.stdout.splitlines()
                if not line.startswith("vertex_recurrence")] == others

    def test_delta_selects_one_triangle_deletion_count(self):
        r = run_main("verify", "-g", K4_G6, "--identity", "triangle_deletion_counts",
                     "--delta", "0-1-2")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            'triangle_deletion_counts params={"delta": [0, 1, 2]} '
            "lhs=[4, 3, 0, 0] rhs=[4, 3, 0, 0] holds=true"
        ]

    def test_delta_must_be_a_triangle_for_triangle_deletion_counts(self):
        r = run_main("verify", "-g", "Dhc", "--identity", "triangle_deletion_counts",
                     "--delta", "0-1-2")
        assert r.returncode == 2
        assert "not a triangle" in r.stderr

    def test_delta_on_a_5_clique_graph_is_not_applicable(self):
        args = ("verify", "-g", K5_G6, "--identity", "handshake,triangle_deletion_counts",
                "--k", "2")
        default = run_main(*args)
        r = run_main(*args, "--delta", "0-1-2")
        assert r.returncode == default.returncode == 0
        assert "triangle_deletion_counts" not in r.stdout
        assert r.stdout == default.stdout


@pytest.mark.parametrize("name, flag, value, count", [
    ("edge_recurrence", "--e", "0-1-2", 2),
    ("triangle_identity", "--delta", "0-1", 3),
])
def test_wrong_number_of_ids_in_a_flag_is_a_usage_error(name, flag, value, count, capsys):
    assert main(["verify", "-g", K4_G6, "--identity", name, flag, value]) == 2
    assert capsys.readouterr() == ("", f"error: expected {count} vertex ids in '{value}'\n")


def test_vertex_ids_that_are_not_integers_are_a_usage_error(capsys):
    assert main(["verify", "-g", "Bw", "--identity", "edge_recurrence", "--e", "a-b"]) == 2
    assert capsys.readouterr() == ("", "error: expected dash-separated vertex ids, got 'a-b'\n")


FUZZ_ONE = ["fuzz", "--count", "1", "--seed", "1", "--check", "handshake"]


@pytest.mark.parametrize("argv, message", [
    ([*FUZZ_ONE, "--n", "4..6", "--p", "-0.1..0.5"],
     "edge probability must be a number in [0, 1], got -0.1"),
    ([*FUZZ_ONE, "--n", "4..6", "--p", "-.5..1"],
     "edge probability must be a number in [0, 1], got -0.5"),
    ([*FUZZ_ONE, "--n", "-1..6"], "vertex count -1 outside 0..64"),
    (["verify", "-g", "Bw", "--identity", "edge_recurrence", "--e", "-1-2"],
     "expected dash-separated vertex ids, got '-1-2'"),
], ids=["p", "p-no-leading-digit", "n", "e"])
def test_a_flag_value_that_starts_with_a_minus_sign_reaches_its_own_rule(argv, message, capsys):
    """A value that starts with '-' and a digit or '.' is read as the value
    of its flag, not as a flag of its own, so its own rule refuses it in one
    error line with exit 2, as it does the same value written --flag=value."""
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    flag = max(i for i, token in enumerate(argv) if token.startswith("--"))
    joined = [*argv[:flag], f"{argv[flag]}={argv[flag + 1]}", *argv[flag + 2:]]
    assert main(joined) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("name, flag, value, params", [
    ("edge_recurrence", "--e", "2-0", {"e": [0, 2]}),
    ("triangle_identity", "--delta", "2-1-0", {"delta": [0, 1, 2]}),
    ("clique_deletion", "--clique", "2-1-0",
     {"m": [[0, 1], [0, 2], [1, 2]], "interpretation": "cliques"}),
])
def test_unordered_instance_flag_is_normalised(name, flag, value, params, capsys):
    assert main(["verify", "-g", K4_G6, "--identity", name, flag, value,
                 "--format", "json"]) == 0
    [report] = json.loads(capsys.readouterr().out)
    assert report["params"] == params and report["holds"] is True


def test_a_clique_has_one_verdict_and_one_report_however_its_ids_are_ordered(capsys):
    """The triangle 0-1-2 of K4 listed by the catalog and the same clique
    parsed from --clique 2-0-1 are one mask: they share one entry of the
    graph's deletion verdicts (_Terms.deletions), the very verdict object,
    and render one report, which verify prints as the catalog's line."""
    cd = CHECKS["clique_deletion"]
    g = complete_graph(4)
    listed = cd.reports(g, None)
    kept = dict(g.memo.identities.deletions)
    assert len(kept) == len(listed) == 11
    parsed = cd.parse(g, "2-0-1")
    assert parsed in kept and cd.check(g, parsed) is kept[parsed]
    assert g.memo.identities.deletions == kept
    [report] = cd.reports(g, None, [parsed])
    assert report == next(r for r in listed if r.params["m"] == [[0, 1], [0, 2], [1, 2]])
    assert main(["verify", "-g", K4_G6, "--identity", "clique_deletion"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for ids in ("2-0-1", "0-1-2", "1-2-0"):
        assert main(["verify", "-g", K4_G6, "--identity", "clique_deletion", "--clique", ids]) == 0
        [line] = capsys.readouterr().out.splitlines()
        assert line in lines and '"m": [[0, 1], [0, 2], [1, 2]]' in line


def _flag_value(param, instance) -> str:
    """An instance as its verify flag writes it: a vertex as its id, a
    clique's mask as its ids, dash-separated."""
    return str(instance) if param == "v" else "-".join(map(str, bits(instance)))


@pytest.mark.parametrize(
    "name", [name for name, cd in CHECKS.items() if cd.param in ("v", "e", "delta", "clique")]
)
def test_flag_selects_the_matching_default_line(name):
    cd = CHECKS[name]
    first = list(cd.params(complete_graph(4), None))[0]
    default = run_main("verify", "-g", K4_G6, "--identity", name)
    r = run_main("verify", "-g", K4_G6, "--identity", name, f"--{cd.param}",
                 _flag_value(cd.param, first))
    assert r.returncode == default.returncode
    assert r.stdout == default.stdout.splitlines(keepends=True)[0]


class TestSixtyFourVertices:
    def test_poly_prints_the_binomial_row(self):
        r = run_main("poly", "-g", K64_G6)
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            " ".join(str(comb(64, k)) for k in range(65)), "omega 64",
        ]

    @pytest.mark.parametrize("name", ["first_derivative", "second_derivative"])
    def test_derivative_identity_holds(self, name):
        r = run_main("verify", "-g", K64_G6, "--identity", name)
        assert r.returncode == 0
        assert r.stdout.startswith(f"{name} ")
        assert r.stdout.rstrip("\n").endswith("holds=true")

    @pytest.mark.parametrize("args, k_max", [
        (("matrix", "--kind", "super", "--k", "10"), 11),
        (("verify", "--identity", "handshake", "--k", "40"), 40),
    ])
    def test_listing_over_the_budget_is_a_usage_error(self, args, k_max):
        command, *rest = args
        r = run_main(command, "-g", K64_G6, *rest)
        assert r.returncode == 2
        assert r.stdout == ""
        listed = sum(comb(64, k) for k in range(1, k_max + 1))
        assert f"would list {listed} cliques, over the budget of {LISTING_BUDGET}" in r.stderr


class TestBudgetSkips:
    """A check over the listing budget is skipped; the others still report."""

    # K6 lists 21 cliques up to size 2, 41 up to 3 and 56 up to 4, so every
    # check that lists its edges, triangles or 4-cliques goes over 20
    def test_verify_prints_the_checks_within_the_budget(self, monkeypatch, capsys):
        monkeypatch.setattr("cliquekit.cliques.LISTING_BUDGET", 20)
        code = main(["verify", "-g", K6_G6, "--all-theorems"])
        out, err = capsys.readouterr()
        assert code == 2
        printed = {line.split()[0] for line in out.splitlines()}
        not_applicable = {"third_derivative_k5free", "triangle_deletion_counts"}
        over = ["edge_recurrence", "edge_deck", "second_derivative", "triangle_identity"]
        assert printed == set(ALL_THEOREMS) - {"handshake", "clique_deletion", *over} \
            - not_applicable
        assert "holds=false" not in out
        assert err.splitlines() == [
            "skipped handshake: listing the cliques of up to 2 vertices would list "
            "21 cliques, over the budget of 20",
            *(f"skipped {name}: listing the cliques of up to 3 vertices would list "
              "41 cliques, over the budget of 20" for name in over),
            "skipped clique_deletion: listing the cliques of up to 4 vertices would list "
            "56 cliques, over the budget of 20",
        ]

    # the cliques reading of an s-clique sums 2**s - s - 1 terms and the
    # edge-subsets reading sum over r of C(C(s, 2), C(r, 2)), refused past the budget
    @pytest.mark.parametrize("n, size, name, terms", [
        (22, 22, "clique_deletion", 4_194_281),
        (9, 8, "clique_deletion_edge_subsets", 52_129_355),
    ])
    def test_verify_refuses_an_expansion_over_the_budget_before_reading_a_count(
            self, monkeypatch, capsys, n, size, name, terms):
        forbid_calls(monkeypatch, cliquekit.cliques._Counting, "split")
        clique = "-".join(map(str, range(size)))
        code = main(["verify", "-g", to_graph6(complete_graph(n)), "--identity", name,
                     "--clique", clique])
        assert (code, *capsys.readouterr()) == (
            2, "", f"skipped {name}: expanding C(G) on a clique of {size} vertices would sum "
                   f"{terms} terms, over the budget of {LISTING_BUDGET}\n")

    @pytest.mark.parametrize("n, size, name, terms", [
        (14, 14, "clique_deletion", 16_369),
        (9, 7, "clique_deletion_edge_subsets", 462_596),
    ])
    def test_verify_builds_an_expansion_within_the_budget(self, monkeypatch, capsys,
                                                          n, size, name, terms):
        """Each verifies at the budget, and is refused once the budget,
        read where the listing budget is read, is one term short."""
        args = ["verify", "-g", to_graph6(complete_graph(n)), "--identity", name,
                "--clique", "-".join(map(str, range(size)))]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("clique_deletion params=")
        assert out.endswith(f"holds={'true' if name == 'clique_deletion' else 'false'}\n")
        monkeypatch.setattr("cliquekit.cliques.LISTING_BUDGET", terms - 1)
        assert main(args) == 2
        assert f"would sum {terms} terms, over the budget of {terms - 1}" in capsys.readouterr().err

    def test_an_invalid_instance_flag_stops_verify_before_any_check_runs(self, monkeypatch,
                                                                          capsys):
        monkeypatch.setattr("cliquekit.cliques.LISTING_BUDGET", 20)
        assert main(["verify", "-g", K6_G6, "--all-theorems", "--e", "0-9"]) == 2
        assert capsys.readouterr() == ("", "error: vertex 9 out of range\n")

    def test_a_theorem_failure_outranks_a_skip(self, monkeypatch, capsys):
        monkeypatch.setattr("cliquekit.cliques.LISTING_BUDGET", 20)
        failing = IdentityReport("first_derivative", K6_G6, {}, [1], [2], False)
        monkeypatch.setitem(CHECKS, "first_derivative", dataclasses.replace(
            CHECKS["first_derivative"], run=lambda g, k_range: [failing]))
        code = main(["verify", "-g", K6_G6, "--identity", "handshake,first_derivative"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out.splitlines() == ["first_derivative params={} lhs=[1] rhs=[2] holds=false"]
        assert err.startswith("skipped handshake: ")

    def test_verify_on_k64(self):
        r = run_main("verify", "-g", K64_G6, "--identity", "handshake,first_derivative",
                     "--k", "40")
        assert r.returncode == 2
        assert len(r.stdout.splitlines()) == 1
        assert r.stdout.startswith("first_derivative ")
        assert r.stdout.rstrip("\n").endswith("holds=true")
        assert r.stderr.startswith("skipped handshake: ")

    @pytest.mark.parametrize("extra", [(), ("--json",)])
    def test_fuzz_on_k64_counts_the_skip_and_goes_on(self, extra):
        r = run_main("fuzz", "--n", "64..64", "--p", "1..1", "--count", "1", "--seed", "1",
                     "--check", "handshake,first_derivative", "--k", "40..40", *extra)
        assert r.returncode == 0
        if extra:
            checks = json.loads(r.stdout)["checks"]
            assert checks["handshake"]["skipped_budget"] == 1
            assert checks["handshake"]["tested"] == 0
            assert "skipped_budget" not in checks["first_derivative"]
        else:
            assert r.stdout.splitlines()[1:] == [
                "check handshake [theorem]: tested 0, holds 0, fails 0, n/a 0, "
                "skipped (budget) 1",
                "check first_derivative [theorem]: tested 1, holds 1, fails 0, n/a 0",
            ]


    # handshake lists more than 20 cliques on 17 of the 30 graphs, and so does
    # conjecture3, which lists the triangles; each of its 9 counterexamples on
    # the other 13 carries its shrunk form
    def test_json_with_skips_and_shrunk_counterexamples_is_pinned(self, monkeypatch, capsys):
        monkeypatch.setattr("cliquekit.cliques.LISTING_BUDGET", 20)
        assert main(["fuzz", "--n", "4..8", "--p", "0.3..0.9", "--count", "30", "--seed", "3",
                     "--check", "handshake,conjecture3", "--shrink", "--json"]) == 0
        out = capsys.readouterr().out
        checks = json.loads(out)["checks"]
        for name in ("handshake", "conjecture3"):
            assert (checks[name]["skipped_budget"], checks[name]["tested"]) == (17, 13)
        ces = checks["conjecture3"]["counterexamples"]
        assert len(ces) == 9 and all(ce["shrunk"] is not None for ce in ces)
        assert hashlib.sha256(out.encode()).hexdigest() \
            == "540ab5fc0a6ecae61f7bb04d0d97856743c4c1be1e3205aed6c826011504716c"


class TestFuzz:
    def test_theorem_campaign_is_clean(self):
        r = run_main("fuzz", "--n", "4..8", "--p", "0.2..0.8", "--count", "30",
                     "--seed", "7", "--check", "all-theorems")
        assert r.returncode == 0
        checks = [line for line in r.stdout.splitlines() if line.startswith("check ")]
        assert checks and all(", fails 0, " in line for line in checks)
        assert "elapsed" in r.stderr
        assert "elapsed" not in r.stdout

    def test_conjecture3_with_shrink(self):
        r = run_main("fuzz", "--check", "conjecture3", "--n", "3..8", "--count", "50",
                     "--seed", "7", "--shrink", "--json")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        ces = data["checks"]["conjecture3"]["counterexamples"]
        assert ces
        assert all(ce["shrunk"]["graph6"] == "Bw" for ce in ces)

    def test_byte_identical_reports(self):
        args = ("fuzz", "--n", "3..8", "--count", "40", "--seed", "11",
                "--check", "conjecture3,triangle_deck", "--shrink", "--json")
        # two processes, so nothing one interpreter keeps can make them agree
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_seed_outside_64_bits_rejected(self):
        r = run_main("fuzz", "--n", "3..8", "--count", "5", "--seed", "-5",
                     "--check", "conjecture3")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "seed -5 outside 0..2**64-1" in r.stderr

    @pytest.mark.parametrize("checks, k", [
        ("handshake", "0..0"), ("edge_deck", "0..1"), ("first_derivative", "1..3"),
    ])
    def test_k_no_selected_check_takes_is_a_usage_error(self, checks, k, capsys):
        argv = ["fuzz", "--n", "4..8", "--count", "3", "--seed", "1", "--check", checks]
        assert main([*argv, "--k", k]) == 2
        assert capsys.readouterr() == ("", f"error: --k {k} is not taken by any selected check\n")

    def test_k_range_reaching_one_check_is_valid(self, capsys):
        assert main(["fuzz", "--n", "4..8", "--count", "3", "--seed", "1",
                     "--check", "handshake,first_derivative", "--k", "0..1"]) == 0
        assert "check handshake [theorem]: tested 3, holds 3" in capsys.readouterr().out

    def test_bad_range_rejected(self, capsys):
        r = run_main("fuzz", "--n", "8..3", "--count", "5", "--seed", "1",
                     "--check", "conjecture3")
        assert r.returncode == 2
        r = run_main("fuzz", "--n", "3;8", "--count", "5", "--seed", "1",
                     "--check", "conjecture3")
        assert r.returncode == 2
        argv = ["fuzz", "--n", "4..8", "--count", "5", "--seed", "1", "--check", "conjecture3"]
        for flag, text, example in [("--n", "4..", "4..10"), ("--n", "3;8", "4..10"),
                                    ("--p", "a..0.5", "0.2..0.8"), ("--k", "3..x", "4..10")]:
            assert main([*argv, flag, text]) == 2
            assert capsys.readouterr() == (
                "", f"error: expected a range like {example}, got {text!r}\n"), flag


class TestGen:
    def test_empty_graph(self):
        r = run_main("gen", "5", "0", "42")
        assert r.stdout == "D??\n"

    def test_complete_graph(self):
        r = run_main("gen", "3", "1", "0")
        assert r.stdout == "Bw\n"

    def test_invalid_probability(self):
        r = run_main("gen", "3", "2", "0")
        assert r.returncode == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_rejected(self, seed):
        r = run_main("gen", "10", "0.5", seed)
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"seed {seed} outside 0..2**64-1" in r.stderr

    def test_largest_seed_differs_from_seed_zero(self):
        top = run_main("gen", "10", "0.5", str(2**64 - 1))
        assert top.returncode == 0
        assert top.stdout != run_main("gen", "10", "0.5", "0").stdout

    def test_deterministic(self):
        # two processes, so nothing one interpreter keeps can make them agree
        a = run_cli("gen", "10", "0.5", "123").stdout
        b = run_cli("gen", "10", "0.5", "123").stdout
        assert a == b


# sha256 of stdout at the commit before the counting kernel was rewritten as
# one memoised pivot recurrence; a kernel or catalog change must keep every
# report byte for byte.
FUZZ_THEOREMS = ("fuzz", "--n", "4..12", "--p", "0.2..0.8", "--count", "200",
                 "--seed", "7", "--check", "all-theorems")
FUZZ_MID_SIZE = ("fuzz", "--n", "20..30", "--p", "0.3..0.7", "--count", "3", "--seed", "1",
                 "--check", "all-theorems")
CONJECTURE_CHECKS = ("clique_deletion_edge_subsets,kth_derivative,triangle_recurrence,"
                     "conjecture1_first,conjecture1_second,triangle_deck,conjecture2,"
                     "conjecture3")


@pytest.mark.parametrize("argv, digest", [
    (FUZZ_THEOREMS, "7f0f61173783530b1f3cc3da54f25629916374b0979cf30cdf9e5220ea861ef0"),
    ((*FUZZ_THEOREMS, "--json"),
     "47bb86cad257693502b314dc1f5c751d027730f57b2b323ff9ae308a293326f4"),
    (("fuzz", "--check", "conjecture3,triangle_deck", "--n", "3..8", "--count", "200",
      "--seed", "7", "--shrink", "--json"),
     "c9952c4ee6bbe02357c3c0e4e79d2e97230ce04ffdd9c669277a393718908c59"),
    # measured at commit 2de04aa, before the catalog's checks stopped
    # validating their own instances
    (("fuzz", "--n", "4..10", "--p", "0.3..0.8", "--count", "60", "--seed", "5",
      "--check", CONJECTURE_CHECKS, "--shrink", "--json"),
     "e76e360fc4625255a4bebae24c29397838384b95787ca3026310a76f46d56ce9"),
    # measured at 097b73b, before graphs of at most 12 vertices were counted
    # from a subset table: dense graphs on the table's side of its gate
    (("fuzz", "--n", "10..12", "--p", "0.7..0.95", "--count", "40", "--seed", "2",
      "--check", "all-theorems"),
     "b388b75abb9723a14674c67ebcda58f4c2a73f3c34ea34a089929f7e8ef7dd60"),
    # measured at 8360d09, before verdicts on graphs of at most 12 vertices
    # were decided from packed counts: every check on dense graphs at the
    # gate, whose conjecture sides reach coefficients above 2**16 (the
    # conjecture3 rhs of K~z~~~~~z~~~ has 70 112)
    (("fuzz", "--n", "10..12", "--p", "0.8..1", "--count", "40", "--seed", "3",
      "--check", f"all-theorems,{CONJECTURE_CHECKS}"),
     "26d10fca341b1566f841fd2ad670d74ada554762d7422a89073b54407fc058de"),
    # measured at c96c059, before every count was read packed through one
    # reader: the band just above the subset table's gate, where the packed
    # counts first take more than 16 bits a coefficient
    (("fuzz", "--n", "13..16", "--p", "0.2..0.9", "--count", "20", "--seed", "7",
      "--check", "all-theorems"),
     "3d7526cd188b904cb44ac5adccf5a35cff28a143a37cbf71cd52b5c441e83885"),
])
def test_campaign_stdout_is_pinned(argv, digest, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


JSON = ("--format", "json")
# one instance of every kind, each taken by some check of the catalog
ONE_OF_EACH = ("--k", "3", "--v", "2", "--e", "0-5", "--delta", "1-2-5", "--clique", "2-4-7-8",
               "--with-unit")


# sha256 of `verify` stdout, every catalog check on one graph.  The JSON
# digests of whole-catalog runs were measured at the commit before the
# right-hand sides were summed in one coefficient row.  Unlike the campaign
# digests above, these print the rhs of every holding theorem, the failing
# conjecture sides, graphs above the pivot cutoff, and rows of up to 65
# coefficients (n = 64).  The three runs on `gen 9 0.55 2` (HH^|bSl), measured
# at 941c348, pin the text renderer and, with one flag of every kind, each
# kind's parser and the single-instance path.  The two runs on 12-vertex
# graphs, `gen 12 0.9 3` (K}~~~~~~~~~~) and `gen 12 1 1` (K12), measured at
# 8360d09, pin graphs at the subset table's gate, whose verdicts are decided
# from packed counts.
VERIFY_PINS = [
    (("16", "0.7", "4"), JSON, "ae97c868319811edec1b9e7580cdb0e3d30a9c6348f564c0a7809078a4095f7f"),
    (("24", "0.5", "1"), JSON, "4d880d7e62c3f6bfa805fcb4612cf5371bd62ba356a9a1359a21155e2f10ab69"),
    (("40", "0.2", "2"), JSON, "cbef44a1f929422958f92ef3a7c00438461dc326c668c3187e0c395e5de0a681"),
    (("64", "0.08", "3"), JSON, "001f2dafe4760fd337915a88e5a25c174394011b73cbad589f4ecaf5b3fd9fd8"),
    (("9", "0.55", "2"), (), "4c1adf96959a86b6410e0579ead71500e8f4ce4621d7b1ef0b36641fad65b619"),
    (("9", "0.55", "2"), ONE_OF_EACH,
     "7f9f690aec76f8ace4f0dc18ad07b543c9eedec6129aac511e48835eeaed0683"),
    (("9", "0.55", "2"), (*ONE_OF_EACH, *JSON),
     "953e765adfa59a52905cad23def8a896bfdcfbd0484c044e36bf66dc4445d23c"),
    (("12", "0.9", "3"), JSON, "1dae74b59f5a0a6471b95ad941fbc5a9f5ac2e2769208a77f702c91cd8a55fa8"),
    (("12", "1", "1"), JSON, "af62a5e6fd40234650f373ac258ff1432ea0b0c9ab55bb262f6635d39978d368"),
]


# ids keep the form gen<i>-<digest> that the first four pins had
@pytest.mark.parametrize("gen, extra, digest", VERIFY_PINS,
                         ids=[f"gen{i}-{digest}" for i, (_, _, digest) in enumerate(VERIFY_PINS)])
def test_verify_stdout_is_pinned(gen, extra, digest, capsys):
    assert len(CHECKS) == 19
    assert main(["gen", *gen]) == 0
    g6 = capsys.readouterr().out.strip()
    assert main(["verify", "-g", g6, "--identity", ",".join(CHECKS), *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_all_theorems_on_a_dense_12_vertex_graph_is_pinned(capsys):
    """sha256 of `verify -g 'K~z~~~~~z~~~' --all-theorems` stdout, measured
    at 742c176, before a graph of at most 12 vertices decided all its
    clique-deletion verdicts in one pass: 977 report lines, each holding
    verdict rendered with both sides."""
    assert main(["verify", "-g", "K~z~~~~~z~~~", "--all-theorems"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 977
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "e06c7e82082bf5a2d8d87d3bdaae78e26f2a454dc28eb66cd00be3e1f0508ed0"


def test_verify_all_theorems_above_the_gate_is_pinned(capsys):
    """sha256 of `verify -g 'Oy~|Z~~|NM|}~~}vz~~Zj' --all-theorems` stdout
    (`gen 16 0.85 1`), measured at 9a7e769, before the vertex recurrence and
    the derivative formulas were decided by packed comparison: 1 488 report
    lines, every count read at the 20-bit lane of a 16-vertex graph."""
    assert main(["verify", "-g", "Oy~|Z~~|NM|}~~}vz~~Zj", "--all-theorems"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1488
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "015411cc56326e2aa47440062b43574a59e736fbbfdf36dd22bcc9d54bcd78c9"


def record_kernel_frames(monkeypatch) -> list[tuple[str, tuple[int, int]]]:
    """Record (caller, (id(adj), cand)) of every _poly_of frame: the kernel's
    reads are those whose caller is a graph's packed reader, read."""
    return record_calls(monkeypatch, cliquekit.cliques, "_poly_of",
                        lambda adj, cand, *_: (id(adj), cand), caller=True)


def test_campaign_kernel_calls_are_pinned(monkeypatch, capsys):
    """Every graph of the small-graph theorem campaign has at most
    _SUBSET_TABLE_MAX_N vertices, so it fills one subset table and answers
    every count from it: 200 tables and no kernel call, so no _poly_of
    frame at all, from its reader or any other caller.  Counting each mask
    with the kernel, once per graph, took 8 847 calls.  K13, one vertex
    above the gate, reads C(G) through the kernel: its reader's frame and
    two pivot frames below it."""
    graphs = record_campaign_graphs(monkeypatch)
    nodes = record_kernel_frames(monkeypatch)
    assert main(list(FUZZ_THEOREMS)) == 0
    capsys.readouterr()
    assert max(g.n for g in graphs) <= cliquekit.cliques._SUBSET_TABLE_MAX_N
    assert (len(graphs), len(nodes)) == (200, 0)
    assert [len(g.memo.cliques.subset) for g in graphs] == [1 << (g.n - 1) for g in graphs]
    cliquekit.clique_counts(complete_graph(13))
    assert [caller for caller, _ in nodes] == ["read", "_poly_of", "_poly_of"]


def spy_reader_masks(monkeypatch) -> list[list[int]]:
    """Record the masks asked of each graph's packed reader, read, whether
    its store holds the count already or not: one list per counting state,
    in the order the states are made."""
    # a hand spy: read is a closure that each counting state makes for itself
    init = cliquekit.cliques._Counting.__init__
    asked = []

    def spy(counting, g):
        init(counting, g)
        asked.append(record_calls(monkeypatch, counting, "read", lambda mask: mask))

    monkeypatch.setattr(cliquekit.cliques._Counting, "__init__", spy)
    return asked


def test_mid_size_campaign_kernel_calls_are_pinned(monkeypatch, capsys):
    """The mid-size theorem campaign (CI's, n = 20..30, above the subset
    table's gate) counts every subgraph, G - Q included, as a vertex mask
    over its graph's own rows, and fills no subset table.  Its checks ask
    the graphs' packed readers 10 297 distinct masks.  A reader answers a
    mask that its graph's store holds, as an earlier read or as a pivot node
    that an earlier read kept, so only 10 186 of them are kernel reads, the
    _poly_of frames that a reader makes (10 297 when every read passed the
    kernel a memo of its own, and 8 404 when the small neighbourhood terms
    of a G - Q split were grown into the split's row and not kept).  Every
    mask read enters through one _poly_of frame, and those of at least
    _PIVOT_MIN_SIZE vertices enter the pivot recursion: 21 269 frames,
    13 227 of them on a candidate set at or above the cutoff, and 4 020 the
    one frame of a mask below it, which is grown straight into its packed
    row.  With a memo per read they were 27 676, 14 471 and 4 020: a pivot
    node that an earlier read of the graph kept is now not counted again."""
    graphs = record_campaign_graphs(monkeypatch)
    asked = spy_reader_masks(monkeypatch)
    nodes = record_kernel_frames(monkeypatch)
    assert main(list(FUZZ_MID_SIZE)) == 0
    capsys.readouterr()
    assert len(graphs) == len(asked) == 3
    assert all(g.memo.cliques.subset is None for g in graphs)
    assert cliquekit.cliques._counting(complete_graph(12)).subset
    assert sum(len(set(masks)) for masks in asked) == 10297
    reads = [frame for caller, frame in nodes if caller == "read"]
    assert len(reads) == len(set(reads)) == 10186
    cutoff = cliquekit.cliques._PIVOT_MIN_SIZE
    assert (len(nodes), sum(cand.bit_count() >= cutoff for _, (_, cand) in nodes)) \
        == (21269, 13227)
    assert sum(cand.bit_count() < cutoff for _, cand in reads) == 4020


def test_campaign_unpacks_each_graphs_counts_once(monkeypatch, capsys):
    """The small-graph theorem campaign unpacks C(G) once for each of its
    200 graphs, into the graph's one counts slot: every count a check sums
    or compares is read packed, and C(G) is asked by every check, by the
    clique-deletion verdicts and the vertex recurrence once per graph for
    the held verdict they share.  triangle_deletion_counts compares its
    formula with C(G - E(d)) packed, so a holding verdict unpacks nothing,
    and every verdict of the campaign holds."""
    graphs = record_campaign_graphs(monkeypatch)
    unpacked = record_calls(monkeypatch, cliquekit.cliques._Counting, "unpack",
                            lambda counting, packed: packed, caller=True)
    assert main(list(FUZZ_THEOREMS)) == 0
    capsys.readouterr()
    assert len(graphs) == 200
    assert Counter(caller for caller, _ in unpacked) \
        == {"clique_counts": 200}
    assert [packed for caller, packed in unpacked if caller == "clique_counts"] \
        == [g.memo.cliques.read((1 << g.n) - 1) for g in graphs]


@pytest.mark.parametrize("checks, decks", [
    ("all-theorems", {1: 200, 2: 200}),
    ("triangle_deck,conjecture2,conjecture3", {3: 200}),
])
def test_campaign_sums_each_deck_once_per_graph(checks, decks, monkeypatch, capsys):
    """Over 200 campaign graphs, the deck checks sum each deck they read
    once per graph, into its expansion context's decks keyed by r:
    vertex_deck (r = 1) and edge_deck (r = 2) at every k, and
    triangle_deck, conjecture2 and conjecture3 share the 3-deck's row."""
    graphs = record_campaign_graphs(monkeypatch)
    argv = ["fuzz", "--n", "4..12", "--p", "0.2..0.8", "--count", "200", "--seed", "7",
            "--check", checks]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(graphs) == 200
    assert Counter(deck for g in graphs for deck in g.memo.identities.decks) == decks


def test_campaign_assembles_one_deletion_rhs_per_clique(monkeypatch, capsys):
    """Over the small-graph theorem campaign, the edge recurrence, the triangle
    identity and the clique-deletion expansion decide one verdict per edge,
    triangle and 4-clique between them: 6 519, where one per check
    instance would be 11 803.  Each adds one entry to the deletion
    verdicts of its graph's expansion context (_Terms), which holds one
    packed term per clique of 2 to 4 vertices, shared by every clique that
    contains it: 6 519 terms as well."""
    graphs = record_campaign_graphs(monkeypatch)
    assert main(list(FUZZ_THEOREMS)) == 0
    capsys.readouterr()
    terms = [g.memo.identities for g in graphs]
    sizes = Counter(q.bit_count() for t in terms for q in t.deletions)
    assert sizes == {2: 2906, 3: 2378, 4: 1235}
    assert [set(t) for t in terms] == [set(t.deletions) for t in terms]
    assert sum(map(len, terms)) == 6519


def test_campaign_lists_each_graphs_cliques_once(monkeypatch, capsys):
    """The small-graph theorem campaign lists each of its 200 graphs'
    cliques once, up to the clique number for the handshake check, and
    every check reads its edges and triangles from that one catalog:
    neither Graph.edges nor graphs.triangles is called."""
    graphs = record_campaign_graphs(monkeypatch)
    asked = record_listings(monkeypatch)
    forbid_calls(monkeypatch, cliquekit.graphs.Graph, "edges")
    for module in (cliquekit, cliquekit.graphs):
        forbid_calls(monkeypatch, module, "triangles")
    assert main(list(FUZZ_THEOREMS)) == 0
    capsys.readouterr()
    assert len(graphs) == len(asked) == 200
    assert asked == [max(len(cliquekit.clique_counts(g)), 1) for g in graphs]
    with pytest.raises(AssertionError, match="edges called"):
        graphs[0].edges()
    for module in (cliquekit, cliquekit.graphs):
        with pytest.raises(AssertionError, match="triangles called"):
            module.triangles(graphs[0])


def test_campaign_builds_no_theorem_row(monkeypatch, capsys):
    """Every theorem holds on the small-graph theorem campaign, and every
    verdict is decided by comparing packed integers, so none builds its
    right side in a row: no _poly_verdict call, the comparison every
    row-built verdict ends in.  Deciding the vertex recurrence and the
    derivative formulas in rows made 2 116 calls."""
    built = record_calls(monkeypatch, cliquekit.identities, "_poly_verdict",
                         lambda lhs, rhs: len(lhs))
    assert main(list(FUZZ_THEOREMS)) == 0
    capsys.readouterr()
    assert built == []
    # the carry guard sends K13's 78 edge neighbourhoods to the row
    assert cliquekit.check_second_derivative(complete_graph(13)).holds
    assert built == [12]


def test_campaign_splits_each_deleted_clique_once(monkeypatch, capsys):
    """The small-graph theorem campaign makes 10 357 _Counting.split calls
    and splits G - E(Q) into masks on the 6 519 that miss, once per edge,
    triangle and 4-clique of its graphs, each kept in its graph's splits:
    the clique-deletion verdicts, the edge deck and
    triangle_deletion_counts read the same entry; the edge deck maps split
    over the catalog's edge masks, so _Counting.add's batched sum calls it
    there.  Splitting again for the
    deck and the counts made 10 357 splits, and when a miss reached the
    split through a call to itself the campaign made 16 876 split frames.

    Each decided clique makes exactly one split call and one _Counting.term
    call, for its own term, straight from _deletion_verdict: the campaign
    decides every clique first, so each of those splits misses, and the
    deck and the counts find the entry kept."""
    graphs = record_campaign_graphs(monkeypatch)
    frames = record_calls(monkeypatch, cliquekit.cliques._Counting, "split",
                          lambda counting, without: (id(counting), without), caller=True)
    scaled = record_calls(monkeypatch, cliquekit.cliques._Counting, "term",
                          lambda counting, *args: None, caller=True)
    assert main(list(FUZZ_THEOREMS)) == 0
    capsys.readouterr()
    assert (len(graphs), len(frames)) == (200, 10357)
    assert Counter(caller for caller, _ in frames) \
        == {"_deletion_verdict": 6519, "add": 2906, "triangle_deletion_counts": 932}
    assert sum(len(g.memo.cliques.splits) for g in graphs) == 6519
    assert sum(len(g.memo.identities.deletions) for g in graphs) == 6519
    decided = [seen for caller, seen in frames if caller == "_deletion_verdict"]
    assert len(set(decided)) == 6519
    assert Counter(caller for caller, _ in scaled) \
        == {"_deletion_verdict": 6519, "check_vertex_recurrence": 1549}


def test_campaign_reads_each_term_and_clique_size_from_the_memo(monkeypatch, capsys):
    """Over the small-graph theorem campaign, each clique-deletion verdict
    stores its clique's own term, and the campaign asks the edges, then the
    triangles, then the 4-cliques, so every proper subset's term is stored
    before it is read: _Terms.__missing__ is never called (6 519 calls when
    each clique's own term was read there), while a triangle asked of a
    fresh graph reads its edges' terms there.  Every check reads one size
    of cliques from its graph's one stored catalog, so the 200 listings are
    the only CliqueCatalog objects made (1 107 when each size read made a
    prefix catalog)."""
    asked = record_calls(monkeypatch, cliquekit.identities._Terms, "__missing__",
                         lambda terms, s: s)
    made = record_calls(monkeypatch, cliquekit.cliques.CliqueCatalog, "__init__")
    listed = record_listings(monkeypatch)
    assert main(list(FUZZ_THEOREMS)) == 0
    capsys.readouterr()
    assert asked == []
    assert len(made) == len(listed) == 200
    CHECKS["clique_deletion"].check(complete_graph(3), 0b111)
    assert asked == [0b011, 0b101, 0b110]


@pytest.mark.parametrize("gen", [("12", "0.9", "3"), ("16", "0.85", "1")])
def test_one_asked_clique_reads_its_subsets_terms_on_demand(gen, monkeypatch, capsys):
    """A single `verify --clique` on a fresh graph, on either side of the
    subset table's gate, has no earlier verdict to supply its subsets'
    terms: each of the 10 proper subsets of 2 or 3 vertices of the asked
    4-clique is read on demand (_Terms.__missing__) into the graph's one
    expansion context, its own term is stored by its verdict, and it alone
    is decided."""
    assert main(["gen", *gen]) == 0
    g6 = capsys.readouterr().out.strip()
    asked = record_calls(monkeypatch, cliquekit.identities._Terms, "__missing__",
                         lambda terms, s: (terms, s))
    assert main(["verify", "-g", g6, "--identity", "clique_deletion", "--clique", "0-1-2-4"]) == 0
    assert capsys.readouterr().out.rstrip("\n").endswith("holds=true")
    q = 0b10111
    subsets = [sum(1 << v for v in s)
               for r in (2, 3) for s in itertools.combinations((0, 1, 2, 4), r)]
    assert sorted(s for _, s in asked) == sorted(subsets)
    terms = asked[0][0]
    assert all(t is terms for t, _ in asked)
    assert list(terms.deletions) == [q]
    assert terms.deletions[q] is terms.held
    assert set(terms) == {*subsets, q}


def test_theorem_campaign_renders_no_report(monkeypatch, capsys):
    """Every theorem holds on the small-graph theorem campaign, and a campaign
    renders a report only for a failing instance, so it renders none."""
    rendered = record_calls(monkeypatch, IdentityReport, "__init__",
                            lambda report, identity, *rest: identity)
    assert main(list(FUZZ_THEOREMS)) == 0
    capsys.readouterr()
    assert rendered == []
    assert cliquekit.check_first_derivative(complete_graph(3)).holds
    assert rendered == ["first_derivative"]


def test_shrinking_evaluates_instances_up_to_the_first_failure(monkeypatch, capsys):
    """The shrink predicate of the pinned conjecture campaign evaluates each
    check's instances on a candidate graph only up to the first that fails:
    6 869 instances over its 2 983 candidate graphs, where evaluating every
    instance took 7 898."""
    # a hand spy: the predicate evaluates instances through its frozen
    # CheckDef's check field, which no attribute of a module or class reaches
    predicate = cliquekit.conjectures._failure_predicate
    evaluated = []

    def spy(check, params):
        cd = CHECKS[check]

        def counted(g, p):
            evaluated.append(check)
            return cd.check(g, p)

        monkeypatch.setitem(CHECKS, check, dataclasses.replace(cd, check=counted))
        fails = predicate(check, params)
        monkeypatch.setitem(CHECKS, check, cd)
        return fails

    monkeypatch.setattr(cliquekit.conjectures, "_failure_predicate", spy)
    # each candidate graph is one call of the predicate, fails
    tried = record_calls(monkeypatch, cliquekit.identities.CheckDef, "first_failure", caller=True)
    argv = ("fuzz", "--n", "4..10", "--p", "0.3..0.8", "--count", "60", "--seed", "5",
            "--check", CONJECTURE_CHECKS, "--shrink", "--json")
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "e76e360fc4625255a4bebae24c29397838384b95787ca3026310a76f46d56ce9"
    assert (sum(caller == "fails" for caller, _ in tried), len(evaluated)) == (2983, 6869)


def test_readme_identity_catalog_matches_the_checks():
    """README's identity catalog lists every check in catalog order, with its
    class and the verify flag that supplies one instance."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Identity catalog", 1)[1].split("\n#", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]

    def flag(param):
        if param is None:
            return "none"
        return "`--k`" if param == "k" else f"`{cli._INSTANCE_FLAGS[param]}`"

    assert rows == [[f"`{name}`", cd.kind, flag(cd.param)] for name, cd in CHECKS.items()]
