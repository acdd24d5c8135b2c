"""The call recorder that the work pins read, _helpers.record_calls and
forbid_calls, and the in-process CLI runner, _helpers.run_main."""

import sys

import pytest

import cliquekit.cliques
import cliquekit.graphs
from cliquekit import clique_counts_in, complete_graph, cycle_graph

from _helpers import forbid_calls, record_calls, run_cli, run_main


def test_a_name_the_owner_lacks_fails_at_once(monkeypatch):
    for patch in (record_calls, forbid_calls):
        with pytest.raises(AttributeError, match="_count_sum"):
            patch(monkeypatch, cliquekit.cliques, "_count_sum")


def test_each_call_is_recorded_and_then_run(monkeypatch):
    g = cycle_graph(5)
    calls = record_calls(monkeypatch, cliquekit.graphs, "to_graph6")
    assert g.graph6 == "Dhc"
    assert calls == [(g,)]


def test_caller_records_the_calling_functions_name(monkeypatch):
    frames = record_calls(monkeypatch, cliquekit.cliques, "_poly_of",
                          lambda adj, cand, *_: cand, caller=True)
    assert clique_counts_in(complete_graph(3).adj, 0b110) == (2, 1)
    assert frames == [("clique_counts_in", 0b110)]


def test_a_forbidden_call_fails_until_the_patch_is_undone(monkeypatch):
    forbid_calls(monkeypatch, cliquekit.graphs, "to_graph6")
    with pytest.raises(AssertionError, match="to_graph6 called"):
        cycle_graph(5).graph6
    monkeypatch.undo()
    assert cycle_graph(5).graph6 == "Dhc"


@pytest.mark.parametrize("args, stdin, code", [
    (("poly", "-g", "Bw"), None, 0),
    (("poly", "-g", "Bw", "--derivative", "one"), None, 2),  # argparse's usage error
    (("poly",), "Bw\n", 0),
], ids=["success", "usage-error", "stdin"])
def test_main_in_process_gives_what_the_process_gives(args, stdin, code, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the width
    before = sys.stdin
    ours, theirs = run_main(*args, stdin=stdin), run_cli(*args, stdin=stdin)
    assert sys.stdin is before and ours.returncode == code
    assert [ours.returncode, ours.stdout, ours.stderr] \
        == [theirs.returncode, theirs.stdout, theirs.stderr]
