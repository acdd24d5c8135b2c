"""Conjecture checks, seeded fuzz campaigns over G(n, p) corpora, and
counterexample shrinking.

The check catalog gives every identity id one shape: the parameter instances
a check takes on a graph, and a function that evaluates one instance.  Checks
are classed as 'theorem' (proved; a campaign failure is a regression alarm) or
'conjecture' (open; failures are findings, collected and optionally shrunk).
Campaigns are deterministic: identical configs, including the seed, produce
identical reports.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterable, Optional

from .cliques import (
    clique_count,
    clique_counts,
    clique_polynomial,
    enumerate_cliques,
    is_clique,
    poly_derivative,
    poly_divided_derivative,
    poly_reverse,
    poly_sum,
)
from .graphs import (
    Graph,
    RngSpec,
    Splitmix64,
    delete_edge,
    delete_vertex,
    edge_deleted_adj,
    parse_graph6,
    random_gnp,
    triangles,
)
from .identities import (
    IdentityReport,
    NotApplicable,
    _count,
    _poly,
    _poly_report,
    _without_vertex,
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
    clique_deletion_expansion,
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
    return _conjecture1_first(g, include_unit), _conjecture1_second(g, include_unit)


def _conjecture1_first(g: Graph, include_unit: bool) -> IdentityReport:
    n = g.n
    lhs = poly_derivative(poly_reverse(clique_polynomial(g), n, include_unit), 1)
    rhs = poly_sum(
        poly_reverse(_poly(g.adj, _without_vertex(g, v)), n - 1, include_unit)
        for v in range(n)
    )
    return _poly_report("conjecture1_first", g, {"include_unit": include_unit}, lhs, rhs)


def _conjecture1_second(g: Graph, include_unit: bool) -> IdentityReport:
    n = g.n
    lhs = poly_divided_derivative(poly_reverse(clique_polynomial(g), n, include_unit), 2)
    rhs = poly_sum(
        poly_reverse(_poly(edge_deleted_adj(g, [e])), n, include_unit)
        for e in g.edges()
    )
    return _poly_report("conjecture1_second", g, {"include_unit": include_unit}, lhs, rhs)


def check_triangle_deck_identity(g: Graph, k: int) -> IdentityReport:
    """(t - C(k, 3)) * c_k(G) against the sum of c_k(G - d) over triangles d,

    where t is the triangle count and G - d deletes the triangle's edges.
    Reported, never asserted globally: it fails already on the 4-clique.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    tris = triangles(g)
    lhs = (len(tris) - comb(k, 3)) * clique_count(g, k)
    rhs = sum(
        _count(edge_deleted_adj(g, itertools.combinations(d, 2)), k)
        for d in tris
    )
    return IdentityReport(
        "triangle_deck", g.graph6, {"k": k}, lhs, rhs, lhs == rhs
    )


def _triangle_graph_is_edgeless(g: Graph) -> bool:
    # Pairwise test, deliberately not via triangle_graph(): no 64-triangle cap.
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in triangles(g)]
    return all(
        (ma & mb).bit_count() < 2 for ma, mb in itertools.combinations(masks, 2)
    )


def check_conjecture2(g: Graph) -> IdentityReport:
    """If no two triangles of G share an edge, the triangle-deck identity
    should hold for every k up to the clique number.

    Applicable only on that class; otherwise the report carries holds=None.
    """
    g6 = g.graph6
    if not _triangle_graph_is_edgeless(g):
        return IdentityReport("conjecture2", g6, {"applicable": False}, None, None, None)
    omega = len(clique_counts(g))
    ks = list(range(3, omega + 1))
    lhs, rhs = [], []
    for k in ks:
        sub = check_triangle_deck_identity(g, k)
        lhs.append(sub.lhs)
        rhs.append(sub.rhs)
    return IdentityReport(
        "conjecture2", g6, {"applicable": True, "ks": ks}, lhs, rhs, lhs == rhs
    )


def check_conjecture3(g: Graph) -> IdentityReport:
    """(1/3!) d^3/dx^3 C(G, x) against the sum of C(G - d, x) over triangles d.

    Differs from the proved third-derivative formula by summing whole
    edge-deleted graphs instead of neighborhood subgraphs; fails on any graph
    containing a triangle.
    """
    lhs = poly_divided_derivative(clique_polynomial(g), 3)
    rhs = poly_sum(
        _poly(edge_deleted_adj(g, itertools.combinations(d, 2)))
        for d in triangles(g)
    )
    return _poly_report("conjecture3", g, {}, lhs, rhs)


# -- check catalog ---------------------------------------------------------------

THEOREM = "theorem"
CONJECTURE = "conjecture"

KRange = Optional[tuple[int, int]]


@dataclass(frozen=True)
class CheckDef:
    """A catalog entry: id, theorem/conjecture class, and its parameter instances.

    param names the `verify` flag that supplies one instance ('k', 'v', 'e',
    'delta', 'clique' or 'unit'), or is None for checks without a parameter.
    params(g, k_range) lists the instances on g, and check(g, p) evaluates
    one of them.  run(g, k_range) checks every listed instance and keeps the
    reports that apply (holds is not None); it is an init field so that a
    wrapped runner can replace it.
    """

    name: str
    kind: str
    param: Optional[str]
    params: Callable[[Graph, KRange], Iterable]
    check: Callable[[Graph, object], IdentityReport]
    run: Optional[Callable[[Graph, KRange], list[IdentityReport]]] = None

    def __post_init__(self) -> None:
        if self.run is None:
            run = lambda g, k_range: self.applicable(g, self.params(g, k_range))
            object.__setattr__(self, "run", run)

    def applicable(self, g: Graph, instances: Iterable) -> list[IdentityReport]:
        """Reports of the given instances on g, without those that do not apply."""
        reports = (self.check(g, p) for p in instances)
        return [r for r in reports if r.holds is not None]


def _k_params(lo: int) -> Callable[[Graph, KRange], range]:
    """Every k from lo up to the clique number (at least lo), within k_range."""
    def params(g: Graph, k_range: KRange) -> range:
        hi = max(len(clique_counts(g)), lo)
        if k_range is not None:
            return range(max(lo, k_range[0]), min(hi, k_range[1]) + 1)
        return range(lo, hi + 1)

    return params


def _once(g: Graph, k_range: KRange) -> list:
    return [None]


def _k5_free(g: Graph) -> bool:
    return len(clique_counts(g)) < 5


def _small_cliques(g: Graph, k_range: KRange) -> list[tuple[int, ...]]:
    catalog = enumerate_cliques(g, k_max=4)
    return [q for size in (2, 3, 4) for q in catalog.cliques(size)]


def _clique_deletion(interpretation: str) -> Callable[[Graph, tuple], IdentityReport]:
    def check(g: Graph, q: tuple) -> IdentityReport:
        # A one-vertex q has no edges, so the expansion alone would never see it.
        if not is_clique(g, q):
            raise ValueError(f"{tuple(q)} is not a clique of the graph")
        return clique_deletion_expansion(g, itertools.combinations(q, 2), interpretation)

    return check


def _triangle_deletion_report(g: Graph, d) -> IdentityReport:
    try:
        result = triangle_deletion_counts(g, d)
    except NotApplicable:
        return IdentityReport("triangle_deletion_counts", g.graph6, {"delta": list(d)})
    return IdentityReport(
        "triangle_deletion_counts", g.graph6, {"delta": list(result.delta)},
        list(result.formula), list(result.direct), result.matches,
    )


# Entries look every identity function up in the module globals at call time
# (hence the lambdas), so a function swapped for a wrapper is seen here too.
CHECKS: dict[str, CheckDef] = {
    cd.name: cd
    for cd in [
        CheckDef("handshake", THEOREM, "k", _k_params(1),
                 lambda g, k: check_handshake(g, k)),
        CheckDef("vertex_recurrence", THEOREM, "v", lambda g, _: range(g.n),
                 lambda g, v: check_vertex_recurrence(g, v)),
        CheckDef("edge_recurrence", THEOREM, "e", lambda g, _: g.edges(),
                 lambda g, e: check_edge_recurrence(g, e)),
        CheckDef("vertex_deck", THEOREM, "k", _k_params(1),
                 lambda g, k: check_vertex_deck_identity(g, k)),
        CheckDef("edge_deck", THEOREM, "k", _k_params(2),
                 lambda g, k: check_edge_deck_identity(g, k)),
        CheckDef("first_derivative", THEOREM, None, _once,
                 lambda g, _: check_first_derivative(g)),
        CheckDef("second_derivative", THEOREM, None, _once,
                 lambda g, _: check_second_derivative(g)),
        CheckDef("triangle_identity", THEOREM, "delta", lambda g, _: triangles(g),
                 lambda g, d: triangle_identity(g, d)[0]),
        CheckDef("clique_deletion", THEOREM, "clique", _small_cliques,
                 _clique_deletion(INTERPRETATION_CLIQUES)),
        CheckDef("third_derivative_k5free", THEOREM, None,
                 lambda g, _: [None] if _k5_free(g) else [],
                 lambda g, _: check_third_derivative_k5free(g)),
        CheckDef("triangle_deletion_counts", THEOREM, "delta",
                 lambda g, _: triangles(g) if _k5_free(g) else [],
                 _triangle_deletion_report),
        CheckDef("clique_deletion_edge_subsets", CONJECTURE, "clique", _small_cliques,
                 _clique_deletion(INTERPRETATION_EDGE_SUBSETS)),
        CheckDef("kth_derivative", CONJECTURE, "k", _k_params(1),
                 lambda g, k: check_kth_derivative_general(g, k)),
        CheckDef("triangle_recurrence", CONJECTURE, "delta", lambda g, _: triangles(g),
                 lambda g, d: check_triangle_recurrence(g, d)),
        CheckDef("conjecture1_first", CONJECTURE, "unit", lambda g, _: [False],
                 _conjecture1_first),
        CheckDef("conjecture1_second", CONJECTURE, "unit", lambda g, _: [False],
                 _conjecture1_second),
        CheckDef("triangle_deck", CONJECTURE, "k", _k_params(3),
                 lambda g, k: check_triangle_deck_identity(g, k)),
        CheckDef("conjecture2", CONJECTURE, None, _once,
                 lambda g, _: check_conjecture2(g)),
        CheckDef("conjecture3", CONJECTURE, None, _once,
                 lambda g, _: check_conjecture3(g)),
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
        return any(r.holds is False for r in cd.run(g, k_range))

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
        resolve_checks(self.checks)

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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "tested": self.tested,
            "holds": self.holds,
            "fails": self.fails,
            "not_applicable": self.not_applicable,
            "counterexamples": [ce.to_json_dict() for ce in self.counterexamples],
        }


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
            lines.append(
                f"check {name} [{tally.kind}]: tested {tally.tested}, "
                f"holds {tally.holds}, fails {tally.fails}, n/a {tally.not_applicable}"
            )
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
    order, so the report content depends only on the config.
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
            reports = CHECKS[name].run(g, cfg.k_range)
            tally.tested += 1
            if not reports:
                tally.not_applicable += 1
                continue
            bad = next((r for r in reports if r.holds is False), None)
            if bad is None:
                tally.holds += 1
                continue
            tally.fails += 1
            shrunk = None
            if cfg.shrink:
                small = shrink_counterexample(g, name, bad.params)
                small_bad = next(
                    r for r in CHECKS[name].run(small, cfg.k_range)
                    if r.holds is False
                )
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
