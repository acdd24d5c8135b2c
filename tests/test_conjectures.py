import dataclasses
import inspect
import json
import sys

import pytest

import cliquekit.cliques
import cliquekit.conjectures
import cliquekit.identities
from cliquekit import (
    ALL_THEOREMS,
    CHECKS,
    CampaignConfig,
    CliqueBudgetExceeded,
    Counterexample,
    Graph,
    RngSpec,
    bits,
    check_conjecture1,
    check_conjecture2,
    check_conjecture3,
    check_triangle_deck_identity,
    clique_counts,
    clique_polynomial,
    clique_value,
    complete_graph,
    cycle_graph,
    delete_edge,
    delete_vertex,
    disjoint_union,
    empty_graph,
    enumerate_cliques,
    is_clique,
    parse_graph6,
    poly_reverse,
    poly_sum,
    random_gnp,
    replay_counterexample,
    resolve_checks,
    run_campaign,
    shrink_counterexample,
    to_graph6,
    triangle_graph,
    triangles,
)

from _helpers import forbid_calls, record_calls, record_listings

TWO_TRIANGLES = disjoint_union(complete_graph(3), complete_graph(3))


class TestConjecture1:
    def test_k2_without_unit_first_claim_holds(self):
        first, second = check_conjecture1(complete_graph(2))
        assert first.lhs == [2, 2] and first.rhs == [2, 2] and first.holds

    def test_k2_with_unit_first_claim_fails(self):
        first, _ = check_conjecture1(complete_graph(2), include_unit=True)
        assert first.lhs == [2, 2]
        assert first.rhs == [4, 2]
        assert first.holds is False

    def test_k2_second_claim_fails_even_without_unit(self):
        _, second = check_conjecture1(complete_graph(2))
        assert second.lhs == [1]
        assert second.rhs == [0, 2, 1]
        assert second.holds is False

    def test_first_claim_holds_without_unit_on_corpus(self, corpus):
        # the reversal at base n makes the first claim a reshuffled
        # vertex-deck identity, so it should hold everywhere
        for g in corpus:
            first, _ = check_conjecture1(g)
            assert first.holds

    def test_second_claim_tallied_on_triangle_free_corpus(self, corpus):
        outcomes = []
        for g in corpus:
            if enumerate_cliques(g).omega <= 2:
                _, second = check_conjecture1(g)
                assert second.holds == (second.lhs == second.rhs)
                outcomes.append(second.holds)
        assert outcomes  # the class is represented in the corpus

    def test_unit_flag_recorded(self):
        first, second = check_conjecture1(complete_graph(3), include_unit=True)
        assert first.params == {"include_unit": True}
        assert second.params == {"include_unit": True}

    @pytest.mark.parametrize("include_unit", [False, True])
    def test_right_sides_match_the_per_member_sums(self, corpus, include_unit):
        """Both right sides are read from the deck rows; here each member is
        built as its own graph, reversed and added one at a time."""
        seeded = [random_gnp(n, p, RngSpec(100 * n + i))
                  for n in range(0, 17, 2) for i, p in enumerate((0.2, 0.5, 0.8))]
        for g in [*corpus, *seeded]:
            n = g.n
            first_rhs = poly_sum(poly_reverse(clique_polynomial(delete_vertex(g, v)), n - 1,
                                              include_unit) for v in range(n))
            second_rhs = poly_sum(poly_reverse(clique_polynomial(delete_edge(g, e)), n,
                                               include_unit) for e in g.edges())
            first, second = check_conjecture1(Graph(n, g.adj), include_unit)
            assert (first.rhs, second.rhs) == (first_rhs, second_rhs)


class TestTriangleDeckIdentity:
    def test_two_disjoint_triangles(self):
        r = check_triangle_deck_identity(TWO_TRIANGLES, 3)
        assert r.lhs == 2 and r.rhs == 2 and r.holds

    def test_k4_fails(self):
        r = check_triangle_deck_identity(complete_graph(4), 3)
        assert r.lhs == 12 and r.rhs == 0 and r.holds is False

    def test_triangle_free_vacuous(self):
        r = check_triangle_deck_identity(cycle_graph(6), 3)
        assert r.lhs == 0 and r.rhs == 0 and r.holds

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            check_triangle_deck_identity(complete_graph(4), 2)


class TestConjecture2:
    def test_applicable_and_holds(self):
        r = check_conjecture2(TWO_TRIANGLES)
        assert r.params["applicable"] is True
        assert r.params["ks"] == [3]
        assert r.holds is True

    def test_not_applicable_when_triangles_share_edges(self):
        r = check_conjecture2(complete_graph(4))
        assert r.params["applicable"] is False
        assert r.holds is None

    def test_triangle_free_vacuously_applicable(self):
        r = check_conjecture2(cycle_graph(5))
        assert r.params["applicable"] is True
        assert r.params["ks"] == []
        assert r.holds is True

    def test_holds_on_every_applicable_corpus_graph(self, corpus):
        applicable = 0
        for g in corpus:
            r = check_conjecture2(g)
            if r.holds is None:
                continue
            applicable += 1
            assert r.holds is True
        assert applicable > 0

    def test_agrees_with_triangle_graph_edgelessness(self, corpus):
        """conjecture2 applies exactly where no two triangles share an edge,
        which it tests as every edge having at most one common neighbour;
        triangle_graph, which compares the triangles pairwise, is the
        reference, on every graph with at most 64 triangles."""
        seeded = [random_gnp(3 + seed % 14, 0.05 + seed % 19 / 20, RngSpec(seed))
                  for seed in range(600)]
        graphs = [g for g in corpus + seeded if len(triangles(g)) <= 64]
        applicable = [check_conjecture2(g).holds is not None for g in graphs]
        assert applicable == [triangle_graph(g).m == 0 for g in graphs]
        assert 100 < sum(applicable) < len(graphs) - 100


class TestConjecture3:
    def test_k4_fails_with_exact_sides(self):
        r = check_conjecture3(complete_graph(4))
        assert r.lhs == [4, 4]
        assert r.rhs == [4, 16, 12]
        assert r.holds is False

    def test_triangle_free_vacuous(self):
        r = check_conjecture3(cycle_graph(5))
        assert r.lhs == [] and r.rhs == [] and r.holds

    def test_isolated_triangle_fails(self):
        r = check_conjecture3(complete_graph(3))
        assert r.lhs == [1] and r.rhs == [1, 3] and r.holds is False

    def test_fails_exactly_on_triangle_containing_graphs(self, corpus):
        for g in corpus:
            r = check_conjecture3(g)
            assert (r.holds is False) == bool(triangles(g))


class TestCatalog:
    def test_all_theorems_expansion(self):
        names = resolve_checks(["all-theorems"])
        assert names == ALL_THEOREMS
        assert "conjecture3" not in names
        assert "vertex_deck" in names

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown check id"):
            resolve_checks(["nosuch"])

    def test_duplicates_dropped_order_kept(self):
        assert resolve_checks(["conjecture3", "handshake", "conjecture3"]) == (
            "conjecture3",
            "handshake",
        )

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="no checks"):
            resolve_checks([])

    def test_a_replaced_entry_runs_with_its_own_functions(self):
        """dataclasses.replace gives an entry whose default run reads the new
        entry's params, check and render; a run passed in stays as given."""
        cd = CHECKS["vertex_recurrence"]
        g = complete_graph(3)
        failing = dataclasses.replace(cd, check=lambda g, v: (False, [1, v + 1], [1]))
        assert [(r.params, r.lhs, r.holds) for r in failing.run(g, None)] \
            == [({"v": v}, [1, v + 1], False) for v in (0, 1, 2)]
        assert [r.params for r in dataclasses.replace(cd, params=lambda g, _: [1]).run(g, None)] \
            == [{"v": 1}]
        rendered = dataclasses.replace(cd, render=lambda g, v, verdict: (v, verdict[0]))
        assert rendered.run(g, None) == [(0, True), (1, True), (2, True)]
        assert [r.holds for r in cd.run(g, None)] == [True] * 3

        def wrapped(g, k_range):
            return ["wrapped"]

        traced = dataclasses.replace(cd, run=wrapped)
        assert traced.run is wrapped
        assert dataclasses.replace(traced, check=failing.check).run is wrapped

    def test_run_checks_every_listed_instance(self, corpus):
        for g in corpus:
            for name, cd in CHECKS.items():
                instances = list(cd.params(g, None))
                verdicts = [cd.check(g, p) for p in instances]
                checked = [cd.render(g, p, v) for p, v in zip(instances, verdicts)]
                applicable = [r for r in checked if r.holds is not None]
                reports = cd.run(g, None)
                assert reports == applicable, (name, to_graph6(g))
                # a verdict decides holds as its rendered report does, and the
                # first failing verdict renders the first failing report
                assert [v[0] for v in verdicts] == [r.holds for r in checked], (name, to_graph6(g))
                failing = next(((p, v) for p, v in zip(instances, verdicts) if v[0] is False), None)
                assert (cd.render(g, *failing) if failing else None) \
                    == next((r for r in reports if r.holds is False), None), (name, to_graph6(g))
                if cd.param is not None:
                    # the catalog lists its instances in the form parse returns: a
                    # clique kind's instance is the mask that parse makes of its ids
                    raw = [bits(p) if cd.param in ("e", "delta", "clique") else p
                           for p in instances]
                    assert [cd.parse(g, p) for p in raw] == instances, (name, to_graph6(g))

    def test_k_range_selects_the_single_k_instance(self, corpus):
        for g in corpus:
            for name, cd in CHECKS.items():
                if cd.param != "k":
                    continue
                for k in cd.params(g, None):
                    assert cd.run(g, (k, k)) == [cd.render(g, k, cd.check(g, k))], \
                        (name, k, to_graph6(g))

    @pytest.mark.parametrize("name", ["clique_deletion", "clique_deletion_edge_subsets"])
    def test_clique_deletion_rejects_an_instance_that_is_not_a_clique(self, name):
        cd = CHECKS[name]
        with pytest.raises(ValueError, match="out of range"):
            cd.parse(complete_graph(3), (9,))
        with pytest.raises(ValueError, match="not a clique"):
            cd.parse(cycle_graph(5), (0, 1, 2))
        g = complete_graph(3)
        assert cd.check(g, cd.parse(g, (1,)))[0] is True

    @pytest.mark.parametrize("g", [random_gnp(10, 0.8, RngSpec(3)), cycle_graph(5)])
    def test_handshake_then_clique_deletion_list_cliques_once(self, monkeypatch, g):
        """The second check reads the catalog the first listed, also when the
        clique number is below the 4 that clique_deletion asks for."""
        asked = record_listings(monkeypatch)
        reports = CHECKS["handshake"].run(g, None) + CHECKS["clique_deletion"].run(g, None)
        assert asked == [max(len(clique_counts(g)), 1)]
        assert reports and all(r.holds for r in reports)

    def test_one_k_lists_only_up_to_that_k(self, monkeypatch):
        g = random_gnp(10, 0.8, RngSpec(3))
        asked = record_listings(monkeypatch)
        assert [r.params for r in CHECKS["handshake"].run(g, (2, 2))] == [{"k": 2}]
        assert asked == [2]

    def test_over_the_budget_nothing_is_listed(self, monkeypatch):
        """The skip names the first k over the budget, found by counting alone."""
        monkeypatch.setattr(cliquekit.cliques, "LISTING_BUDGET", 20)

        forbid_calls(monkeypatch, cliquekit.cliques, "enumerate_cliques")
        for name in ("handshake", "kth_derivative"):
            with pytest.raises(CliqueBudgetExceeded, match="up to 2 vertices would list 21 "):
                CHECKS[name].run(complete_graph(6), None)
        with pytest.raises(AssertionError, match="enumerate_cliques called"):
            CHECKS["handshake"].run(complete_graph(3), None)

    def test_k_min_is_the_lowest_k_with_an_instance(self):
        g = complete_graph(6)
        for name, cd in CHECKS.items():
            if cd.param != "k":
                assert cd.k_min is None and not cd.takes_k((0, 99)), name
                continue
            assert min(cd.params(g, None)) == cd.k_min, name
            assert cd.takes_k((cd.k_min, cd.k_min)) and cd.takes_k((0, 99)), name
            assert not cd.takes_k((0, cd.k_min - 1)), name

    def test_wrapped_public_functions_leave_the_catalog_as_it_was(self, monkeypatch, corpus):
        """A wrapper swapped in for every public function, as a tracer does,
        changes no report of any catalog check."""
        graphs = corpus[:30]
        before = {name: [cd.run(g, None) for g in graphs] for name, cd in CHECKS.items()}
        for module in (cliquekit.identities, cliquekit.conjectures):
            for attr, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    monkeypatch.setattr(module, attr, lambda *a, _fn=fn, **kw: _fn(*a, **kw))
        for name, cd in CHECKS.items():
            assert [cd.run(Graph(g.n, g.adj), None) for g in graphs] == before[name], name

    def test_every_runner_handles_the_empty_graph(self):
        g = empty_graph(0)
        for name, cd in CHECKS.items():
            reports = cd.run(g, None)
            assert all(r.holds is not False for r in reports), name


class TestShrink:
    def test_conjecture3_shrinks_to_isolated_triangle(self):
        g = disjoint_union(complete_graph(4), cycle_graph(5))
        small = shrink_counterexample(g, "conjecture3")
        assert to_graph6(small) == "Bw"

    def test_already_minimal_is_fixed_point(self):
        g = complete_graph(3)
        assert shrink_counterexample(g, "conjecture3") == g

    def test_passing_graph_rejected(self):
        with pytest.raises(ValueError, match="does not fail"):
            shrink_counterexample(cycle_graph(5), "conjecture3")

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check id"):
            shrink_counterexample(complete_graph(3), "nosuch")

    def test_shrunk_output_is_locally_minimal(self):
        g = random_gnp(8, 0.7, RngSpec(5))
        small = shrink_counterexample(g, "conjecture3")
        fails = lambda h: any(
            r.holds is False for r in CHECKS["conjecture3"].run(h, None)
        )
        assert fails(small)
        for v in range(small.n):
            assert not fails(delete_vertex(small, v))
        for e in small.edges():
            assert not fails(delete_edge(small, e))

    def test_k_parameter_stays_locked(self):
        g = complete_graph(4)
        small = shrink_counterexample(g, "triangle_deck", {"k": 3})
        reports = CHECKS["triangle_deck"].run(small, (3, 3))
        assert any(r.holds is False for r in reports)


class TestCampaign:
    def test_determinism(self):
        cfg = CampaignConfig((3, 8), (0.0, 1.0), 40, RngSpec(7),
                             ("conjecture3", "triangle_deck"), shrink=True)
        assert run_campaign(cfg).to_json() == run_campaign(cfg).to_json()

    def test_ranges_given_as_lists_make_an_equal_config(self):
        """A config keeps its ranges as tuples, so one built with lists
        equals, hashes and reports as the one built with tuples."""
        checks = ("handshake", "kth_derivative")
        listed = CampaignConfig([3, 8], [0, 1.0], 12, RngSpec(5), list(checks), k_range=[1, 3])
        tupled = CampaignConfig((3, 8), (0, 1.0), 12, RngSpec(5), checks, k_range=(1, 3))
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert (listed.n_range, listed.p_range, listed.k_range) == ((3, 8), (0, 1.0), (1, 3))
        assert run_campaign(listed).to_text() == run_campaign(tupled).to_text()

    def test_theorems_never_fail(self):
        cfg = CampaignConfig((4, 12), (0.1, 0.9), 60, RngSpec(3), ("all-theorems",))
        report = run_campaign(cfg)
        assert report.theorem_failures == 0
        for tally in report.tallies.values():
            assert tally.fails == 0
            assert tally.tested == 60
            assert tally.holds + tally.fails + tally.not_applicable == 60

    def test_conjecture3_finds_counterexamples(self):
        cfg = CampaignConfig((3, 8), (0.3, 0.9), 50, RngSpec(7),
                             ("conjecture3",), shrink=True)
        tally = run_campaign(cfg).tallies["conjecture3"]
        assert tally.fails == len(tally.counterexamples) > 0
        for ce in tally.counterexamples:
            assert ce.shrunk is not None
            assert parse_graph6(ce.shrunk.graph6).n <= 4

    def test_replay_of_recorded_counterexamples(self):
        cfg = CampaignConfig((3, 8), (0.2, 0.9), 40, RngSpec(13),
                             ("conjecture3", "triangle_recurrence"))
        report = run_campaign(cfg)
        for tally in report.tallies.values():
            for ce in tally.counterexamples:
                assert replay_counterexample(ce)

    def test_replay_rejects_an_unknown_check(self):
        """A replayed counterexample comes from outside the program, such as
        a saved report: an unknown id is rejected as shrinking rejects it."""
        with pytest.raises(ValueError, match="unknown check id 'nope'"):
            replay_counterexample(Counterexample("nope", "Bw", {}, [1], [1]))

    def test_catalog_instances_are_not_checked_again(self, monkeypatch):
        """Every instance the catalog lists is a clique by construction, so a
        campaign over all 19 checks never asks is_clique, nor _clique_mask,
        through which a clique kind parses the ids it is given."""
        calls = {name: [record_calls(monkeypatch, module, name)
                        for module_name, module in list(sys.modules.items())
                        if module_name.split(".")[0] == "cliquekit"
                        and getattr(module, name, None) is original]
                 for name, original in (("is_clique", is_clique),
                                        ("_clique_mask", cliquekit.cliques._clique_mask))}
        assert all(calls.values())
        cfg = CampaignConfig((4, 12), (0.2, 0.8), 200, RngSpec(7), tuple(CHECKS))
        assert len(CHECKS) == 19
        assert run_campaign(cfg).tallies["handshake"].tested == 200
        assert not any(map(any, calls.values()))
        # clique_value asks is_clique, and so _clique_mask, of every clique
        # it is given
        assert clique_value(complete_graph(3), (0, 1)) == 1
        assert {name: sum(map(len, lists)) for name, lists in calls.items()} \
            == {"is_clique": 1, "_clique_mask": 1}

    def test_not_applicable_tally(self):
        cfg = CampaignConfig((3, 4), (0.0, 0.2), 30, RngSpec(2), ("conjecture2",))
        tally = run_campaign(cfg).tallies["conjecture2"]
        assert tally.tested == 30
        assert tally.holds + tally.not_applicable + tally.fails == 30

    def test_invalid_configs_rejected(self):
        """A config is checked when it is made, with no run_campaign, and
        raises the message run_campaign raised before."""
        good = dict(n_range=(3, 6), p_range=(0.0, 1.0), samples=5,
                    rng=RngSpec(1), checks=("conjecture3",))
        CampaignConfig(**good)
        for overrides, message in (
            ({"n_range": (6, 3)}, r"invalid vertex range \(6, 3\)"),
            ({"n_range": (0, 65)}, "^vertex count 65 outside 0..64"),
            ({"p_range": (0.5, 0.2)}, r"invalid probability range \(0.5, 0.2\)"),
            ({"p_range": (-0.1, 0.5)},
             r"^edge probability must be a number in \[0, 1\], got -0.1"),
            ({"samples": 0}, "sample count must be >= 1"),
            ({"checks": ("nosuch",)}, "unknown check id 'nosuch'"),
            ({"checks": ()}, "no checks selected"),
            ({"k_range": (4, 2)}, r"invalid k range \(4, 2\)"),
            # one string is not a list of ids, and a bool or a float is not a
            # count or a range end: each error names its field, or the kind of
            # value that the range ends are (cliquekit.graphs' rule for it)
            ({"checks": "conjecture3"}, "^checks takes a sequence of ids"),
            ({"samples": True}, "^samples must be an integer, got True"),
            ({"samples": 2.5}, "^samples must be an integer"),
            ({"n_range": (4.0, 8.0)}, "^vertex count must be an integer, got 4.0"),
            ({"n_range": (False, 8)}, "^vertex count must be an integer, got False"),
            ({"k_range": (2.0, 3.0)}, "^k must be an integer, got 2.0"),
            ({"k_range": (2, True)}, "^k must be an integer, got True"),
        ):
            with pytest.raises(ValueError, match=message):
                CampaignConfig(**{**good, **overrides})

    @pytest.mark.parametrize("overrides, message", [
        ({"n_range": (3,)}, r"^n_range takes a pair \(lo, hi\), got \(3,\)"),
        ({"k_range": (3,)}, r"^k_range takes a pair \(lo, hi\), got \(3,\)"),
        ({"p_range": (0.2,)}, r"^p_range takes a pair \(lo, hi\), got \(0.2,\)"),
        ({"p_range": ("a", "b")}, r"^edge probability must be a number in \[0, 1\], got 'a'"),
        ({"rng": 7}, "^rng takes an RngSpec only, got 7"),
        ({"rng": RngSpec(-1)}, r"^seed -1 outside 0..2\*\*64-1"),
        ({"rng": RngSpec(1.5)}, "^seed must be an integer, got 1.5"),
        ({"shrink": "yes"}, "^shrink takes a bool, got 'yes'"),
    ])
    def test_a_wrong_shape_field_is_refused_where_the_config_is_made(self, overrides, message):
        good = dict(n_range=(3, 6), p_range=(0.0, 1.0), samples=5,
                    rng=RngSpec(1), checks=("handshake",), k_range=(3, 4))
        CampaignConfig(**good)
        with pytest.raises(ValueError, match=message):
            CampaignConfig(**{**good, **overrides})

    @pytest.mark.parametrize("checks, k_range", [
        (("handshake",), (0, 0)),
        (("edge_deck",), (-3, 1)),
        (("triangle_deck", "first_derivative"), (1, 2)),
        (("first_derivative",), (1, 5)),
    ])
    def test_a_k_range_no_selected_check_takes_is_rejected(self, checks, k_range):
        with pytest.raises(ValueError, match=f"--k {k_range[0]}..{k_range[1]} is not taken"):
            CampaignConfig((3, 6), (0.0, 1.0), 5, RngSpec(1), checks, k_range=k_range)

    def test_a_config_holds_its_checks_resolved(self):
        cfg = CampaignConfig((3, 6), (0.0, 1.0), 5, RngSpec(1),
                             ("all-theorems", "conjecture3", "handshake"))
        assert cfg.checks == ALL_THEOREMS + ("conjecture3",)
        assert CampaignConfig((3, 6), (0.0, 1.0), 5, RngSpec(1),
                              ("all-theorems",)).checks == ALL_THEOREMS
        assert not hasattr(CampaignConfig, "validate")

    def test_a_made_config_is_not_resolved_again(self, monkeypatch):
        """run_campaign and the JSON report trust the checks the config
        resolved when it was made."""
        cfg = CampaignConfig((3, 6), (0.0, 1.0), 5, RngSpec(1), ("all-theorems",))
        forbid_calls(monkeypatch, cliquekit.conjectures, "resolve_checks")
        report = run_campaign(cfg)
        assert json.loads(report.to_json())["config"]["checks"] == list(ALL_THEOREMS)

    def test_a_k_range_above_every_clique_number_is_valid(self):
        cfg = CampaignConfig((3, 6), (0.0, 1.0), 5, RngSpec(1), ("edge_deck",),
                             k_range=(0, 40))
        report = run_campaign(cfg)
        assert report.tallies["edge_deck"].tested == 5

    def test_json_excludes_timing(self):
        cfg = CampaignConfig((3, 5), (0.0, 1.0), 5, RngSpec(1), ("conjecture3",))
        report = run_campaign(cfg)
        assert report.elapsed_seconds > 0
        assert "elapsed" not in report.to_json()
        assert "elapsed" not in report.to_text()

    def test_k_range_narrows_parameterized_checks(self):
        cfg = CampaignConfig((6, 8), (0.5, 0.9), 10, RngSpec(4),
                             ("vertex_deck",), k_range=(2, 2))
        report = run_campaign(cfg)
        assert report.tallies["vertex_deck"].holds == 10

    def test_a_check_over_the_budget_is_skipped_and_the_campaign_goes_on(self, monkeypatch):
        monkeypatch.setattr("cliquekit.cliques.LISTING_BUDGET", 20)
        cfg = CampaignConfig((6, 6), (1.0, 1.0), 3, RngSpec(1),
                             ("handshake", "first_derivative"))
        report = run_campaign(cfg)
        skipped, counted = report.tallies["handshake"], report.tallies["first_derivative"]
        assert (skipped.tested, skipped.skipped_budget) == (0, 3)
        assert (counted.tested, counted.holds, counted.skipped_budget) == (3, 3, 0)
        assert report.theorem_failures == 0
        assert report.to_text().splitlines()[1:] == [
            "check handshake [theorem]: tested 0, holds 0, fails 0, n/a 0, skipped (budget) 3",
            "check first_derivative [theorem]: tested 3, holds 3, fails 0, n/a 0",
        ]
        checks = report.to_json_dict()["checks"]
        assert checks["handshake"]["skipped_budget"] == 3
        assert "skipped_budget" not in checks["first_derivative"]


class TestConjecture1OnDecks:
    def test_vertex_deck_reversal_bases(self, corpus):
        # spot-check the documented convention: deck members reversed at n-1
        g = complete_graph(3)
        first, _ = check_conjecture1(g)
        # d/dx of x^3 + 3x^2 + 3x + 1 = 3x^2 + 6x + 3
        assert first.lhs == [3, 6, 3]
        assert first.rhs == [3, 6, 3]
