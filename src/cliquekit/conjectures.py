"""Conjecture checks, seeded fuzz campaigns over G(n, p) corpora, and
counterexample shrinking.

The check catalog gives every identity id one shape: the parameter instances
a check takes on a graph, the identity's body, which evaluates one instance
to a verdict (holds and the raw sides, see cliquekit.identities), and the
renderer that turns a verdict into an IdentityReport.  A report is rendered
only where one is read: verify renders every applicable instance, a campaign
only the first failing instance of a check on a graph, and the shrinker
none.  Checks are classed as 'theorem' (proved; a campaign failure is a
regression alarm) or 'conjecture' (open; failures are findings, collected
and optionally shrunk).  Campaigns are deterministic: identical configs,
including the seed, produce identical reports.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .cliques import (
    CliqueBudgetExceeded,
    Polynomial,
    _listed_catalog,
    _require_listing_budget,
    clique_counts,
    clique_polynomial,
    poly_derivative,
    poly_divided_derivative,
    poly_reverse,
)
from .graphs import (
    Graph,
    RngSpec,
    Splitmix64,
    delete_edge,
    delete_vertex,
    parse_graph6,
    random_gnp,
    triangles,
)
from .identities import (
    IdentityReport,
    NotApplicable,
    Render,
    Verdict,
    _deck,
    _deck_verdict,
    _deletion_verdict,
    _edge_subsets_verdict,
    _k_parser,
    _named,
    _parse_clique,
    _parse_edge,
    _parse_triangle,
    _parse_vertex,
    _poly_verdict,
    _public,
    _render_expansion,
    _render_triangle_deletion_counts,
    _render_triangle_identity,
    _renderer,
    _unnamed,
    check_edge_deck_identity,
    check_edge_recurrence,
    check_first_derivative,
    check_handshake,
    check_kth_derivative_general,
    check_second_derivative,
    check_third_derivative_k5free,
    check_triangle_recurrence,
    check_vertex_deck_identity,
    check_vertex_recurrence,
    triangle_deletion_counts,
    triangle_identity,
    INTERPRETATION_CLIQUES,
    INTERPRETATION_EDGE_SUBSETS,
)


# -- reversed-polynomial conjectures -------------------------------------------

def check_conjecture1(g: Graph, include_unit: bool = False) -> tuple[IdentityReport, IdentityReport]:
    """Derivative formulas for the reversed clique-counting polynomial c(G, x).

    c(G, x) reverses the clique polynomial at exponent base n.  First claim:
    d/dx c(G, x) == sum over v of c(G - v, x), each deck member reversed at
    base n-1 (a vertex-deleted subgraph keeps n-1 vertices).  Second claim:
    (1/2!) d^2/dx^2 c(G, x) == sum over e of c(G - e, x), deck members
    reversed at base n.  include_unit switches to the variant of c that keeps
    an extra literal constant 1.
    """
    return (_render_conjecture1_first(g, include_unit, _conjecture1_first(g, include_unit)),
            _render_conjecture1_second(g, include_unit, _conjecture1_second(g, include_unit)))


def _conjecture1_first(g: Graph, include_unit: bool) -> Verdict:
    """The first claim of check_conjecture1.

    Without the unit it holds on every graph: it is the vertex-deck identity
    read coefficient by coefficient.  c(G, x) = sum over k of c_k x^(n-k),
    with c_0 = 1, so its derivative has (n - k) c_k at x^(n-1-k).  The deck
    member c(G - v, x), reversed at base n - 1, has c_k(G - v) there, and
    summed over v this counts each k-clique once per vertex outside it:
    (n - k) c_k again.  With the unit, the derivative drops the literal 1 but
    each of the n deck members keeps its own, so the right side has n more
    at x^0 and the claim fails whenever n >= 1.  The catalog still classes
    it as a conjecture, as the paper poses it; re-classing it would change
    the exit codes of verify and fuzz.
    """
    n = g.n
    lhs = poly_derivative(poly_reverse(clique_polynomial(g), n, include_unit), 1)
    return _poly_verdict(lhs, _reversed_deck(g, "vertex", n - 1, include_unit))


def _conjecture1_second(g: Graph, include_unit: bool) -> Verdict:
    n = g.n
    lhs = poly_divided_derivative(poly_reverse(clique_polynomial(g), n, include_unit), 2)
    return _poly_verdict(lhs, _reversed_deck(g, "edge", n, include_unit))


def _reversed_deck(g: Graph, deck: str, base: int, include_unit: bool) -> Polynomial:
    """The sum over the members of deck of C(x) reversed at base, each with
    its own unit if include_unit: the deck's row reversed at base, plus the
    member count (the row's x**0) at x**0."""
    row = _deck(g, deck)
    rhs = poly_reverse(row, base)
    if include_unit and row:
        rhs[0] += row[0]
    return rhs


_render_conjecture1_first = _renderer("conjecture1_first", _named("include_unit"))
_render_conjecture1_second = _renderer("conjecture1_second", _named("include_unit"))


@_public(_renderer("triangle_deck", _named("k"), sides=None), _k_parser(3))
def check_triangle_deck_identity(g: Graph, k: int) -> Verdict:
    """(t - C(k, 3)) * c_k(G) against the sum of c_k(G - d) over triangles d,

    where t is the triangle count and G - d deletes the triangle's edges.
    Reported, never asserted globally: it fails already on the 4-clique.
    """
    return _deck_verdict(g, "triangle", 3, k)


def _triangle_graph_is_edgeless(g: Graph) -> bool:
    # Pairwise test, deliberately not via triangle_graph(): no 64-triangle cap.
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in triangles(g)]
    return all(
        (ma & mb).bit_count() < 2 for ma, mb in itertools.combinations(masks, 2)
    )


def _render_conjecture2(g: Graph, _, verdict: Verdict) -> IdentityReport:
    holds, lhs, rhs = verdict
    if holds is None:
        return IdentityReport("conjecture2", g.graph6, {"applicable": False}, None, None, None)
    ks = list(range(3, len(clique_counts(g)) + 1))
    return IdentityReport("conjecture2", g.graph6, {"applicable": True, "ks": ks},
                          lhs, rhs, lhs == rhs)


@_public(_render_conjecture2)
def check_conjecture2(g: Graph) -> Verdict:
    """If no two triangles of G share an edge, the triangle-deck identity
    should hold for every k up to the clique number.

    Applicable only on that class; otherwise the report carries holds=None.
    """
    if not _triangle_graph_is_edgeless(g):
        return None, None, None
    lhs, rhs = [], []
    for k in range(3, len(clique_counts(g)) + 1):
        _, sub_lhs, sub_rhs = CHECKS["triangle_deck"].check(g, k)
        lhs.append(sub_lhs)
        rhs.append(sub_rhs)
    return lhs == rhs, lhs, rhs


@_public(_renderer("conjecture3", _unnamed))
def check_conjecture3(g: Graph) -> Verdict:
    """(1/3!) d^3/dx^3 C(G, x) against the sum of C(G - d, x) over triangles d.

    Differs from the proved third-derivative formula by summing whole
    edge-deleted graphs instead of neighborhood subgraphs; fails on any graph
    containing a triangle.
    """
    return _poly_verdict(poly_divided_derivative(clique_polynomial(g), 3), _deck(g, "triangle"))


# -- check catalog ---------------------------------------------------------------

THEOREM = "theorem"
CONJECTURE = "conjecture"

KRange = Optional[tuple[int, int]]


@dataclass(frozen=True)
class CheckDef:
    """A catalog entry: id, theorem/conjecture class, and its parameter instances.

    param names the `verify` flag that supplies one instance ('k', 'v', 'e',
    'delta', 'clique' or 'unit'), or is None for checks without a parameter.
    params(g, k_range) lists the instances on g, already normal, and
    check(g, p) evaluates one of them to a verdict, trusting it; an instance
    whose verdict holds None, or whose check raises NotApplicable, does not
    apply, and verdict(g, p) is the one place that says so.  render(g, p, verdict) renders a verdict as its IdentityReport.
    parse(g, raw) validates one instance from outside the program, such as a
    verify flag's text, with the parser its kind shares with the public
    identity functions, and returns it as params lists it (a unit switch is
    taken as given).  k_min is the smallest k a 'k' check takes on any
    graph.  run(g, k_range) renders every listed instance that applies; it is
    an init field so that a wrapped runner can replace it.  Left as None, or
    as another entry's default, it is this entry's own reports, so an entry
    made by dataclasses.replace runs with its own params, check and render.
    """

    name: str
    kind: str
    param: Optional[str]
    params: Callable[[Graph, KRange], Iterable]
    check: Callable[[Graph, object], Verdict]
    render: Render
    parse: Callable[[Graph, object], object] = lambda g, raw: raw
    k_min: Optional[int] = None
    run: Optional[Callable[[Graph, KRange], list[IdentityReport]]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.run is None or getattr(self.run, "__func__", None) is CheckDef.reports:
            object.__setattr__(self, "run", self.reports)

    def reports(self, g: Graph, k_range: KRange) -> list[IdentityReport]:
        """Reports of every listed instance on g that applies: the default run."""
        return self.applicable(g, self.params(g, k_range))

    def verdict(self, g: Graph, p) -> Optional[Verdict]:
        """The verdict of instance p on g, or None if p does not apply: its
        check raised NotApplicable or decided holds None."""
        try:
            verdict = self.check(g, p)
        except NotApplicable:
            return None
        return None if verdict[0] is None else verdict

    def applicable(self, g: Graph, instances: Iterable) -> list[IdentityReport]:
        """Reports of the given instances on g, without those that do not apply."""
        return [self.render(g, p, verdict) for p in instances
                if (verdict := self.verdict(g, p)) is not None]

    def first_failure(self, g: Graph, k_range: KRange) -> tuple[bool, Optional[tuple[object, Verdict]]]:
        """Whether some listed instance applies on g, and the first that fails
        with its verdict (None if every one holds).  Evaluates no instance
        after the failing one and renders none."""
        applies = False
        for p in self.params(g, k_range):
            verdict = self.verdict(g, p)
            if verdict is None:
                continue
            if verdict[0] is False:
                return True, (p, verdict)
            applies = True
        return applies, None

    def takes_k(self, k_range: tuple[int, int]) -> bool:
        """Whether some graph has an instance of this check with k in k_range.

        Only the lower end is fixed: how high k goes depends on the graph.
        """
        return self.k_min is not None and k_range[1] >= self.k_min


def _entry(name: str, kind: str, param: Optional[str], params: Callable[[Graph, KRange], Iterable],
           public: Callable, parse: Callable[[Graph, object], object] = CheckDef.parse) -> CheckDef:
    """The entry of a public identity function: its body and its renderer."""
    return CheckDef(name, kind, param, params, public.body, public.render, parse)


def _k_check(name: str, kind: str, lo: int, public: Callable, listing: bool = False) -> CheckDef:
    """A check over every k from lo up to the clique number (at least lo), within k_range.

    A listing check reads the k-cliques themselves: its params list the
    cliques of up to the largest such k first, once per graph, so every
    instance reads a prefix of that catalog.  Over the listing budget they
    list nothing and raise CliqueBudgetExceeded for the first k over it.
    """
    def params(g: Graph, k_range: KRange) -> range:
        hi = max(len(clique_counts(g)), lo)
        if k_range is not None:
            ks = range(max(lo, k_range[0]), min(hi, k_range[1]) + 1)
        else:
            ks = range(lo, hi + 1)
        if listing and ks:
            for k in ks:
                _require_listing_budget(g, k)
            _listed_catalog(g, ks[-1])
        return ks

    return CheckDef(name, kind, "k", params, public.body, public.render, _k_parser(lo), k_min=lo)


def _once(g: Graph, k_range: KRange) -> list:
    return [None]


def _k5_free(g: Graph) -> bool:
    return len(clique_counts(g)) < 5


def _small_cliques(g: Graph, k_range: KRange) -> list[tuple[int, ...]]:
    catalog = _listed_catalog(g, 4)
    return [q for size in (2, 3, 4) for q in catalog.cliques(size)]


# Every entry binds its identity's body and renderer when the catalog is
# built, so a public function swapped for a wrapper changes no entry.
CHECKS: dict[str, CheckDef] = {
    cd.name: cd
    for cd in [
        _k_check("handshake", THEOREM, 1, check_handshake, listing=True),
        _entry("vertex_recurrence", THEOREM, "v", lambda g, _: range(g.n),
               check_vertex_recurrence, _parse_vertex),
        _entry("edge_recurrence", THEOREM, "e", lambda g, _: g.edges(),
               check_edge_recurrence, _parse_edge),
        _k_check("vertex_deck", THEOREM, 1, check_vertex_deck_identity),
        _k_check("edge_deck", THEOREM, 2, check_edge_deck_identity),
        _entry("first_derivative", THEOREM, None, _once, check_first_derivative),
        _entry("second_derivative", THEOREM, None, _once, check_second_derivative),
        CheckDef("triangle_identity", THEOREM, "delta", lambda g, _: triangles(g),
                 triangle_identity.body, _render_triangle_identity, _parse_triangle),
        CheckDef("clique_deletion", THEOREM, "clique", _small_cliques, _deletion_verdict,
                 _render_expansion(INTERPRETATION_CLIQUES), _parse_clique),
        _entry("third_derivative_k5free", THEOREM, None,
               lambda g, _: [None] if _k5_free(g) else [], check_third_derivative_k5free),
        CheckDef("triangle_deletion_counts", THEOREM, "delta",
                 lambda g, _: triangles(g) if _k5_free(g) else [],
                 triangle_deletion_counts.body, _render_triangle_deletion_counts,
                 _parse_triangle),
        CheckDef("clique_deletion_edge_subsets", CONJECTURE, "clique", _small_cliques,
                 _edge_subsets_verdict, _render_expansion(INTERPRETATION_EDGE_SUBSETS),
                 _parse_clique),
        _k_check("kth_derivative", CONJECTURE, 1, check_kth_derivative_general, listing=True),
        _entry("triangle_recurrence", CONJECTURE, "delta", lambda g, _: triangles(g),
               check_triangle_recurrence, _parse_triangle),
        CheckDef("conjecture1_first", CONJECTURE, "unit", lambda g, _: [False],
                 _conjecture1_first, _render_conjecture1_first),
        CheckDef("conjecture1_second", CONJECTURE, "unit", lambda g, _: [False],
                 _conjecture1_second, _render_conjecture1_second),
        _k_check("triangle_deck", CONJECTURE, 3, check_triangle_deck_identity),
        _entry("conjecture2", CONJECTURE, None, _once, check_conjecture2),
        _entry("conjecture3", CONJECTURE, None, _once, check_conjecture3),
    ]
}

ALL_THEOREMS = tuple(name for name, cd in CHECKS.items() if cd.kind == THEOREM)


def resolve_checks(names) -> tuple[str, ...]:
    """Expand 'all-theorems' and validate ids, preserving order without duplicates."""
    out: list[str] = []
    for name in names:
        expanded = ALL_THEOREMS if name == "all-theorems" else (name,)
        for item in expanded:
            if item not in CHECKS:
                raise ValueError(f"unknown check id {item!r}")
            if item not in out:
                out.append(item)
    if not out:
        raise ValueError("no checks selected")
    return tuple(out)


# -- shrinking ---------------------------------------------------------------------

def _failure_predicate(check: str, params: Optional[dict]) -> Callable[[Graph], bool]:
    cd = CHECKS[check]
    locked_k = (params or {}).get("k")
    k_range = (locked_k, locked_k) if locked_k is not None else None

    def fails(g: Graph) -> bool:
        return cd.first_failure(g, k_range)[1] is not None

    return fails


def shrink_counterexample(g: Graph, check: str, params: Optional[dict] = None) -> Graph:
    """Greedily delete vertices, then edges, while the check keeps failing.

    The result is a local minimum: every further single deletion makes the
    check pass or become inapplicable.  A k parameter in params stays locked
    during shrinking; vertex-indexed parameters cannot survive re-indexing,
    so failure means "some parameter instance fails".
    """
    if check not in CHECKS:
        raise ValueError(f"unknown check id {check!r}")
    fails = _failure_predicate(check, params)
    if not fails(g):
        raise ValueError("check does not fail on the input graph")
    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            candidate = delete_vertex(g, v)
            if fails(candidate):
                g = candidate
                improved = True
                break
        if improved:
            continue
        for e in g.edges():
            candidate = delete_edge(g, e)
            if fails(candidate):
                g = candidate
                improved = True
                break
    return g


# -- campaigns ----------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs; equal configs give byte-identical reports."""

    n_range: tuple[int, int]
    p_range: tuple[float, float]
    samples: int
    rng: RngSpec
    checks: tuple[str, ...]
    shrink: bool = False
    k_range: Optional[tuple[int, int]] = None

    def validate(self) -> None:
        if self.n_range[0] > self.n_range[1] or self.n_range[0] < 0 or self.n_range[1] > 64:
            raise ValueError(f"invalid vertex range {self.n_range}")
        if not 0.0 <= self.p_range[0] <= self.p_range[1] <= 1.0:
            raise ValueError(f"invalid probability range {self.p_range}")
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")
        if self.k_range is not None and self.k_range[0] > self.k_range[1]:
            raise ValueError(f"invalid k range {self.k_range}")
        names = resolve_checks(self.checks)
        if self.k_range is not None and not any(CHECKS[n].takes_k(self.k_range) for n in names):
            lo, hi = self.k_range
            raise ValueError(f"--k {lo}..{hi} is not taken by any selected check")

    def to_json_dict(self) -> dict:
        return {
            "n_range": list(self.n_range),
            "p_range": list(self.p_range),
            "samples": self.samples,
            "seed": self.rng.seed,
            "algorithm": self.rng.algorithm,
            "checks": list(resolve_checks(self.checks)),
            "shrink": self.shrink,
            "k_range": list(self.k_range) if self.k_range else None,
        }


@dataclass(frozen=True)
class ShrunkForm:
    graph6: str
    params: dict
    lhs: object
    rhs: object

    def to_json_dict(self) -> dict:
        return {"graph6": self.graph6, "params": self.params,
                "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class Counterexample:
    check: str
    graph6: str
    params: dict
    lhs: object
    rhs: object
    shrunk: Optional[ShrunkForm] = None

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "graph6": self.graph6,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "shrunk": self.shrunk.to_json_dict() if self.shrunk else None,
        }


@dataclass
class CheckTally:
    kind: str
    tested: int = 0
    holds: int = 0
    fails: int = 0
    not_applicable: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    # graphs on which the check would have listed more cliques than the budget;
    # rendered only when nonzero, so a campaign without skips does not show it
    skipped_budget: int = 0

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "tested": self.tested,
            "holds": self.holds,
            "fails": self.fails,
            "not_applicable": self.not_applicable,
            "counterexamples": [ce.to_json_dict() for ce in self.counterexamples],
        }
        if self.skipped_budget:
            out["skipped_budget"] = self.skipped_budget
        return out


@dataclass
class CampaignReport:
    """Per-check tallies and counterexamples for one campaign run.

    elapsed_seconds is carried for display on stderr but excluded from the
    JSON and text renderings, which must be byte-identical across runs with
    equal seeds.
    """

    config: CampaignConfig
    tallies: dict[str, CheckTally]
    elapsed_seconds: float

    @property
    def theorem_failures(self) -> int:
        return sum(t.fails for t in self.tallies.values() if t.kind == THEOREM)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "checks": {name: t.to_json_dict() for name, t in self.tallies.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_text(self, max_listed: int = 10) -> str:
        cfg = self.config
        lines = [
            f"campaign: {cfg.samples} graphs, n in [{cfg.n_range[0]}, {cfg.n_range[1]}], "
            f"p in [{cfg.p_range[0]}, {cfg.p_range[1]}], seed {cfg.rng.seed}"
        ]
        for name, tally in self.tallies.items():
            line = (
                f"check {name} [{tally.kind}]: tested {tally.tested}, "
                f"holds {tally.holds}, fails {tally.fails}, n/a {tally.not_applicable}"
            )
            if tally.skipped_budget:
                line += f", skipped (budget) {tally.skipped_budget}"
            lines.append(line)
            for ce in tally.counterexamples[:max_listed]:
                lines.append(
                    f"  counterexample graph6={ce.graph6} "
                    f"params={json.dumps(ce.params, sort_keys=True)} "
                    f"lhs={ce.lhs} rhs={ce.rhs}"
                )
                if ce.shrunk:
                    lines.append(
                        f"    shrunk graph6={ce.shrunk.graph6} "
                        f"params={json.dumps(ce.shrunk.params, sort_keys=True)} "
                        f"lhs={ce.shrunk.lhs} rhs={ce.shrunk.rhs}"
                    )
            hidden = len(tally.counterexamples) - max_listed
            if hidden > 0:
                lines.append(f"  ... and {hidden} more counterexamples")
        return "\n".join(lines) + "\n"


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Sweep seeded G(n, p) graphs through the configured checks.

    Graphs are evaluated one by one and tallies are accumulated in sample
    order, so the report content depends only on the config.  A check that
    would list more cliques than the budget on a graph is counted in
    skipped_budget instead of tested, and the campaign goes on.  A check's
    instances on a graph are evaluated up to the first that fails, and only
    that one is rendered as a report.
    """
    cfg.validate()
    names = resolve_checks(cfg.checks)
    start = time.perf_counter()
    tallies = {name: CheckTally(CHECKS[name].kind) for name in names}
    stream = Splitmix64(cfg.rng.seed)
    n_lo, n_hi = cfg.n_range
    p_lo, p_hi = cfg.p_range
    for _ in range(cfg.samples):
        n = n_lo + stream.next_u64() % (n_hi - n_lo + 1)
        p = p_lo + (stream.next_u64() / 2.0**64) * (p_hi - p_lo)
        g = random_gnp(n, p, RngSpec(stream.next_u64()))
        for name in names:
            tally = tallies[name]
            cd = CHECKS[name]
            try:
                applies, failure = cd.first_failure(g, cfg.k_range)
            except CliqueBudgetExceeded:
                tally.skipped_budget += 1
                continue
            tally.tested += 1
            if not applies:
                tally.not_applicable += 1
                continue
            if failure is None:
                tally.holds += 1
                continue
            tally.fails += 1
            bad = cd.render(g, *failure)
            shrunk = None
            if cfg.shrink:
                small = shrink_counterexample(g, name, bad.params)
                small_bad = cd.render(small, *cd.first_failure(small, cfg.k_range)[1])
                shrunk = ShrunkForm(
                    small.graph6, small_bad.params, small_bad.lhs, small_bad.rhs
                )
            tally.counterexamples.append(
                Counterexample(name, g.graph6, bad.params, bad.lhs, bad.rhs, shrunk)
            )
    elapsed = time.perf_counter() - start
    return CampaignReport(cfg, tallies, elapsed)


def replay_counterexample(ce: Counterexample, k_range: KRange = None) -> bool:
    """Re-parse a recorded counterexample and confirm it still fails the same way."""
    g = parse_graph6(ce.graph6)
    reports = CHECKS[ce.check].run(g, k_range)
    return any(
        r.holds is False and r.params == ce.params
        and r.lhs == ce.lhs and r.rhs == ce.rhs
        for r in reports
    )
