import json
import subprocess
import sys

import pytest

from cliquekit import CHECKS, complete_graph, to_graph6

from _helpers import subprocess_env

K4_G6 = to_graph6(complete_graph(4))
K5_G6 = to_graph6(complete_graph(5))


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "cliquekit", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=120,
        env=subprocess_env(),
    )


class TestPoly:
    def test_triangle(self):
        r = run_cli("poly", "-g", "Bw")
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["1 3 3 1", "omega 3"]

    def test_derivative(self):
        r = run_cli("poly", "-g", "Bw", "--derivative", "1")
        assert r.returncode == 0
        assert r.stdout == "3 6 3\n"

    def test_divided_second_derivative(self):
        r = run_cli("poly", "-g", K4_G6, "--derivative", "2")
        assert r.stdout == "6 12 6\n"

    def test_reversed(self):
        r = run_cli("poly", "-g", "A_", "--reversed")  # K2
        assert r.stdout == "1 2 1\n"
        r = run_cli("poly", "-g", "A_", "--reversed", "--with-unit")
        assert r.stdout == "2 2 1\n"

    def test_parse_error_exit_code(self):
        r = run_cli("poly", "-g", "??bad")
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_stdin_fallback(self):
        r = run_cli("poly", stdin="Bw\n")
        assert r.returncode == 0
        assert r.stdout.splitlines()[0] == "1 3 3 1"

    def test_edge_list_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n0 1\n1 2\n0 2\n")
        r = run_cli("poly", "-i", str(path))
        assert r.stdout.splitlines()[0] == "1 3 3 1"


class TestMatrix:
    def test_vertex_edge_incidence_csv(self):
        r = run_cli("matrix", "-g", "Bw", "--kind", "super", "--k", "1")
        assert r.returncode == 0
        assert r.stdout == (
            ",0-1,0-2,1-2,row_sum\n"
            "0,1,1,0,2\n"
            "1,1,0,1,2\n"
            "2,0,1,1,2\n"
            "col_sum,2,2,2,6\n"
        )

    def test_triangle_deck_on_k4_is_zero(self):
        r = run_cli("matrix", "-g", K4_G6, "--kind", "tdeck", "--k", "3", "--format", "json")
        data = json.loads(r.stdout)
        assert data["matrix"] == [[0] * 4] * 4
        assert data["double_count"] == [0, 0]

    def test_oversized_k_gives_empty_matrix(self):
        r = run_cli("matrix", "-g", "Bw", "--kind", "super", "--k", "9")
        assert r.returncode == 0
        assert "col_sum,0" in r.stdout

    def test_invalid_kind_rejected(self):
        r = run_cli("matrix", "-g", "Bw", "--kind", "bogus", "--k", "1")
        assert r.returncode == 2

    def test_invalid_k_for_kind(self):
        r = run_cli("matrix", "-g", "Bw", "--kind", "edeck", "--k", "1")
        assert r.returncode == 2


class TestVerify:
    def test_all_theorems_on_triangle(self):
        r = run_cli("verify", "-g", "Bw", "--all-theorems")
        assert r.returncode == 0
        assert "holds=false" not in r.stdout
        assert "vertex_recurrence" in r.stdout

    def test_conjecture_failure_does_not_fail_exit(self):
        r = run_cli("verify", "-g", K4_G6, "--identity", "conjecture3")
        assert r.returncode == 0
        assert "holds=false" in r.stdout
        assert "lhs=[4, 4]" in r.stdout

    def test_unknown_identity(self):
        r = run_cli("verify", "-g", "Bw", "--identity", "nosuch")
        assert r.returncode == 2

    def test_json_reports_validate(self):
        r = run_cli("verify", "-g", K4_G6, "--identity", "triangle_identity",
                    "--format", "json")
        reports = json.loads(r.stdout)
        assert len(reports) == 4
        for rep in reports:
            assert set(rep) == {"identity", "graph6", "params", "lhs", "rhs", "holds"}
            assert rep["holds"] is True

    def test_explicit_vertex_parameter(self):
        r = run_cli("verify", "-g", "Bw", "--identity", "vertex_recurrence", "--v", "1")
        assert r.stdout.count("vertex_recurrence") == 1
        assert '"v": 1' in r.stdout

    def test_explicit_delta_parameter(self):
        r = run_cli("verify", "-g", K4_G6, "--identity", "triangle_identity",
                    "--delta", "0-1-3")
        assert r.stdout.count("triangle_identity") == 1
        assert "holds=true" in r.stdout

    def test_comma_separated_ids(self):
        r = run_cli("verify", "-g", "Bw", "--identity", "handshake,conjecture3")
        assert "handshake" in r.stdout and "conjecture3" in r.stdout

    def test_edge_subsets_reading_is_a_finding(self):
        r = run_cli("verify", "-g", K4_G6, "--identity", "clique_deletion_edge_subsets",
                    "--clique", "0-1-2-3")
        assert r.returncode == 0
        assert r.stdout.count("\n") == 1
        assert "holds=false" in r.stdout

    def test_interpretation_option_rejected(self):
        r = run_cli("verify", "-g", K4_G6, "--identity", "clique_deletion",
                    "--clique", "0-1-2-3", "--interpretation", "edge-subsets")
        assert r.returncode == 2
        assert r.stdout == ""

    def test_clique_outside_the_graph_is_a_usage_error(self):
        r = run_cli("verify", "-g", "Bw", "--identity", "clique_deletion", "--clique", "9-10")
        assert r.returncode == 2
        assert "error:" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("name", ["clique_deletion", "clique_deletion_edge_subsets"])
    def test_one_vertex_clique_outside_the_graph_is_a_usage_error(self, name):
        r = run_cli("verify", "-g", "Bw", "--identity", name, "--clique", "9")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error:" in r.stderr and "out of range" in r.stderr

    @pytest.mark.parametrize("name", ["clique_deletion", "clique_deletion_edge_subsets"])
    def test_non_clique_is_a_usage_error(self, name):
        r = run_cli("verify", "-g", "Dhc", "--identity", name, "--clique", "0-1-2")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error:" in r.stderr and "not a clique" in r.stderr

    @pytest.mark.parametrize("name, flag", [
        ("handshake", ("--delta", "9-9-9")),
        ("first_derivative", ("--with-unit",)),
    ])
    def test_flag_no_selected_check_takes_is_a_usage_error(self, name, flag):
        r = run_cli("verify", "-g", "Bw", "--identity", name, *flag)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error:" in r.stderr and flag[0] in r.stderr

    def test_all_theorems_with_a_vertex_flag(self):
        default = run_cli("verify", "-g", "Bw", "--all-theorems")
        r = run_cli("verify", "-g", "Bw", "--all-theorems", "--v", "1")
        assert r.returncode == 0
        assert r.stdout.count("vertex_recurrence") == 1
        assert '"v": 1' in r.stdout
        others = [line for line in default.stdout.splitlines()
                  if not line.startswith("vertex_recurrence")]
        assert [line for line in r.stdout.splitlines()
                if not line.startswith("vertex_recurrence")] == others

    def test_delta_selects_one_triangle_deletion_count(self):
        r = run_cli("verify", "-g", K4_G6, "--identity", "triangle_deletion_counts",
                    "--delta", "0-1-2")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            'triangle_deletion_counts params={"delta": [0, 1, 2]} '
            "lhs=[4, 3, 0, 0] rhs=[4, 3, 0, 0] holds=true"
        ]

    def test_delta_must_be_a_triangle_for_triangle_deletion_counts(self):
        r = run_cli("verify", "-g", "Dhc", "--identity", "triangle_deletion_counts",
                    "--delta", "0-1-2")
        assert r.returncode == 2
        assert "not a triangle" in r.stderr

    def test_delta_on_a_5_clique_graph_is_not_applicable(self):
        args = ("verify", "-g", K5_G6, "--identity", "handshake,triangle_deletion_counts",
                "--k", "2")
        default = run_cli(*args)
        r = run_cli(*args, "--delta", "0-1-2")
        assert r.returncode == default.returncode == 0
        assert "triangle_deletion_counts" not in r.stdout
        assert r.stdout == default.stdout


def _flag_value(instance) -> str:
    return str(instance) if isinstance(instance, int) else "-".join(map(str, instance))


@pytest.mark.parametrize(
    "name", [name for name, cd in CHECKS.items() if cd.param in ("v", "e", "delta", "clique")]
)
def test_flag_selects_the_matching_default_line(name):
    cd = CHECKS[name]
    first = list(cd.params(complete_graph(4), None))[0]
    default = run_cli("verify", "-g", K4_G6, "--identity", name)
    r = run_cli("verify", "-g", K4_G6, "--identity", name, f"--{cd.param}", _flag_value(first))
    assert r.returncode == default.returncode
    assert r.stdout == default.stdout.splitlines(keepends=True)[0]


class TestFuzz:
    def test_theorem_campaign_is_clean(self):
        r = run_cli("fuzz", "--n", "4..8", "--p", "0.2..0.8", "--count", "30",
                    "--seed", "7", "--check", "all-theorems")
        assert r.returncode == 0
        assert "fails 0" in r.stdout
        assert "elapsed" in r.stderr
        assert "elapsed" not in r.stdout

    def test_conjecture3_with_shrink(self):
        r = run_cli("fuzz", "--check", "conjecture3", "--n", "3..8", "--count", "50",
                    "--seed", "7", "--shrink", "--json")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        ces = data["checks"]["conjecture3"]["counterexamples"]
        assert ces
        assert all(ce["shrunk"]["graph6"] == "Bw" for ce in ces)

    def test_byte_identical_reports(self):
        args = ("fuzz", "--n", "3..8", "--count", "40", "--seed", "11",
                "--check", "conjecture3,triangle_deck", "--shrink", "--json")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_bad_range_rejected(self):
        r = run_cli("fuzz", "--n", "8..3", "--count", "5", "--seed", "1",
                    "--check", "conjecture3")
        assert r.returncode == 2
        r = run_cli("fuzz", "--n", "3;8", "--count", "5", "--seed", "1",
                    "--check", "conjecture3")
        assert r.returncode == 2


class TestGen:
    def test_empty_graph(self):
        r = run_cli("gen", "5", "0", "42")
        assert r.stdout == "D??\n"

    def test_complete_graph(self):
        r = run_cli("gen", "3", "1", "0")
        assert r.stdout == "Bw\n"

    def test_invalid_probability(self):
        r = run_cli("gen", "3", "2", "0")
        assert r.returncode == 2

    def test_deterministic(self):
        a = run_cli("gen", "10", "0.5", "123").stdout
        b = run_cli("gen", "10", "0.5", "123").stdout
        assert a == b
