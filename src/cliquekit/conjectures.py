"""Seeded fuzz campaigns over G(n, p) corpora, counterexample shrinking and
replay, over the check catalog of cliquekit.identities.

CHECKS maps each id to its CheckDef, in CATALOG's order; it is a dict so
that an entry can be swapped for a wrapped one.  A check's body evaluates
one instance to a verdict (holds and the raw sides), and a report is
rendered only where one is read: verify renders every applicable instance,
a campaign only the first failing instance of a check on a graph, and the
shrinker none.  Checks are classed as 'theorem' (proved; a campaign failure
is a regression alarm) or 'conjecture' (open; failures are findings,
collected and optionally shrunk).  A CampaignConfig is checked once, when
it is made (a ValueError otherwise), and trusted after: it holds its checks
resolved and its ranges as tuples, and run_campaign and the report read
them as they are.  Campaigns
are deterministic: identical configs, including the seed, produce identical
reports.

Tallies, counterexamples and shrunk forms serialize as their dataclass
fields (dataclasses.asdict; a tally omits skipped_budget when it is 0).
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Optional

from .cliques import CliqueBudgetExceeded
from .graphs import (
    RNG_ALGORITHM,
    Graph,
    RngSpec,
    Splitmix64,
    _integer,
    _probability,
    _seed,
    _vertex_count,
    delete_edge,
    delete_vertex,
    parse_graph6,
    random_gnp,
)
from .identities import CATALOG, THEOREM, CheckDef

# -- check catalog ---------------------------------------------------------------

CHECKS: dict[str, CheckDef] = {cd.name: cd for cd in CATALOG}

ALL_THEOREMS = tuple(name for name, cd in CHECKS.items() if cd.kind == THEOREM)


def _check_def(name: str) -> CheckDef:
    """The catalog's check of that id; ValueError for an unknown one, which
    may come from outside the program, as in a saved report."""
    if name not in CHECKS:
        raise ValueError(f"unknown check id {name!r}")
    return CHECKS[name]


def resolve_checks(names) -> tuple[str, ...]:
    """Expand 'all-theorems' and validate ids, preserving order without duplicates."""
    out: list[str] = []
    for name in names:
        expanded = ALL_THEOREMS if name == "all-theorems" else (name,)
        for item in expanded:
            _check_def(item)
            if item not in out:
                out.append(item)
    if not out:
        raise ValueError("no checks selected")
    return tuple(out)


# -- shrinking ---------------------------------------------------------------------

def _failure_predicate(check: str, params: Optional[dict]) -> Callable[[Graph], bool]:
    cd = _check_def(check)
    locked_k = (params or {}).get("k")
    k_range = (locked_k, locked_k) if locked_k is not None else None

    def fails(g: Graph) -> bool:
        return cd.first_failure(g, k_range)[1] is not None

    return fails


def shrink_counterexample(g: Graph, check: str, params: Optional[dict] = None) -> Graph:
    """Greedily delete vertices, then edges, while the check keeps failing.

    Each pass tries every single-vertex deletion and then every single-edge
    deletion, one lazy sequence of candidates, and the first that fails
    replaces g.  The result is a local minimum: every further single
    deletion makes the check pass or become inapplicable.  A k parameter in
    params stays locked during shrinking; vertex-indexed parameters cannot
    survive re-indexing, so failure means "some parameter instance fails".
    """
    fails = _failure_predicate(check, params)
    if not fails(g):
        raise ValueError("check does not fail on the input graph")

    def candidates(g: Graph) -> Iterator[Graph]:
        yield from (delete_vertex(g, v) for v in range(g.n))
        yield from (delete_edge(g, e) for e in g.edges())

    while (smaller := next(filter(fails, candidates(g)), None)) is not None:
        g = smaller
    return g


# -- campaigns ----------------------------------------------------------------------

def _require_range(name: str, value, what: str, end: Callable) -> None:
    """ValueError naming the config field unless value is a pair (lo, hi);
    then each end is checked by its kind's rule in cliquekit.graphs (end),
    and ValueError naming what range it is unless lo <= hi."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise ValueError(f"{name} takes a pair (lo, hi), got {value!r}")
    lo, hi = map(end, value)
    if lo > hi:
        raise ValueError(f"invalid {what} range {value}")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs; equal configs give byte-identical reports.

    A config is checked when it is made, so an invalid one raises ValueError
    where it is built, and trusted after: checks holds the resolved ids
    ('all-theorems' expanded), and each range a tuple, however it was given,
    so equal configs compare and hash equal."""

    n_range: tuple[int, int]
    p_range: tuple[float, float]
    samples: int
    rng: RngSpec
    checks: tuple[str, ...]
    shrink: bool = False
    k_range: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        """Raise ValueError if the config is invalid; store its checks
        resolved (resolve_checks) and its ranges as tuples."""
        _require_range("n_range", self.n_range, "vertex", _vertex_count)
        _require_range("p_range", self.p_range, "probability", _probability)
        if _integer(self.samples, "samples") < 1:
            raise ValueError("sample count must be >= 1")
        if not isinstance(self.rng, RngSpec):
            raise ValueError(f"rng takes an RngSpec only, got {self.rng!r}")
        _seed(self.rng.seed)
        if not isinstance(self.shrink, bool):
            raise ValueError(f"shrink takes a bool, got {self.shrink!r}")
        if self.k_range is not None:
            _require_range("k_range", self.k_range, "k", lambda k: _integer(k, "k"))
        if isinstance(self.checks, str):
            raise ValueError(f"checks takes a sequence of ids, got the string {self.checks!r}")
        names = resolve_checks(self.checks)
        if self.k_range is not None and not any(CHECKS[n].takes_k(self.k_range) for n in names):
            lo, hi = self.k_range
            raise ValueError(f"--k {lo}..{hi} is not taken by any selected check")
        object.__setattr__(self, "checks", names)
        for name in ("n_range", "p_range", "k_range"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))

    def to_json_dict(self) -> dict:
        return {
            "n_range": list(self.n_range),
            "p_range": list(self.p_range),
            "samples": self.samples,
            "seed": self.rng.seed,
            "algorithm": RNG_ALGORITHM,
            "checks": list(self.checks),
            "shrink": self.shrink,
            "k_range": list(self.k_range) if self.k_range else None,
        }


@dataclass(frozen=True)
class ShrunkForm:
    graph6: str
    params: dict
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Counterexample:
    check: str
    graph6: str
    params: dict
    lhs: object
    rhs: object
    shrunk: Optional[ShrunkForm] = None


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
        out = asdict(self)
        if not self.skipped_budget:
            del out["skipped_budget"]
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
                for lead, form in (("  counterexample", ce), ("    shrunk", ce.shrunk)):
                    if form:
                        lines.append(
                            f"{lead} graph6={form.graph6} "
                            f"params={json.dumps(form.params, sort_keys=True)} "
                            f"lhs={form.lhs} rhs={form.rhs}"
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
    start = time.perf_counter()
    tallies = {name: CheckTally(CHECKS[name].kind) for name in cfg.checks}
    stream = Splitmix64(cfg.rng.seed)
    n_lo, n_hi = cfg.n_range
    p_lo, p_hi = cfg.p_range
    for _ in range(cfg.samples):
        n = n_lo + stream.next_u64() % (n_hi - n_lo + 1)
        p = p_lo + (stream.next_u64() / 2.0**64) * (p_hi - p_lo)
        g = random_gnp(n, p, RngSpec(stream.next_u64()))
        for name in cfg.checks:
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


def replay_counterexample(ce: Counterexample) -> bool:
    """Re-parse a recorded counterexample and confirm that one of its check's
    instances, over every k, still fails with the recorded params and sides.
    An unknown check id raises ValueError, as shrink_counterexample's."""
    cd = _check_def(ce.check)
    reports = cd.run(parse_graph6(ce.graph6), None)
    return any(
        r.holds is False and r.params == ce.params
        and r.lhs == ce.lhs and r.rhs == ce.rhs
        for r in reports
    )
