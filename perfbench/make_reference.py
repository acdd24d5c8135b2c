"""Build the benchmark's reference outputs and check each one against an
independent oracle before writing it.

    PYTHONPATH=src python3 perfbench/make_reference.py

Oracles: clique counts by exhaustive subsets (`brute_force_counts`) for
n <= 20 and by networkx `enumerate_all_cliques` above that, plus the
invariants c1 = n, c2 = m and c3 = number of triangles; incidence matrices
are rebuilt from networkx cliques and the matrix definitions.  The rendered
CSV and JSON must equal what `cliquekit matrix` prints.  The outputs go to
perfbench/reference/; rerun only when the workloads themselves change.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import statistics
import sys
from math import comb

import networkx as nx

from common import (
    CAMPAIGN_N_RANGE,
    CAMPAIGN_P_BINS,
    CAMPAIGN_P_RANGE,
    MATRIX_BUILDERS,
    REFERENCE_DIR,
    digest,
    permutation,
    splitmix64,
)

import cliquekit
from cliquekit import cli
from cliquekit import (
    CampaignConfig,
    Graph,
    RngSpec,
    Splitmix64,
    brute_force_counts,
    clique_counts,
    clique_polynomial,
    random_gnp,
    run_campaign,
    to_graph6,
    triangles,
)

CAMPAIGN_PER_TEMPLATE = 64
DENSE_PER_TEMPLATE = 40
MATRIX_PER_TEMPLATE = 48
# Instances of a template keep their size (clique count, or matrix cells)
# within BAND of the median of the first PILOT draws, so that a run's numbers
# depend on the template mix and not on which instances a seed picked.  An odd
# template count puts the median item inside one template, not on a border.
PILOT = 15
BAND = 0.12
# One dense item is up to a second of one call, so its size spread shows in
# the per-item latencies; keep it tighter.
DENSE_BAND = 0.05
# Small campaign graphs have few cliques; a fixed slack keeps them varied.
CAMPAIGN_BAND_FLOOR = 16

# Sparse-large to dense-near-the-cap: density rises as n falls.  (n, p) stands
# for G(n, m) with m = round(p * C(n, 2)); see gnm().
DENSE_TEMPLATES = [
    (64, 0.50), (60, 0.55), (56, 0.60), (52, 0.65), (48, 0.70),
    (44, 0.75), (40, 0.80), (38, 0.825), (36, 0.85),
]

# (kind as in `cliquekit matrix --kind`, k, n, p), graphs as G(n, m) like above
MATRIX_TEMPLATES = [
    ("super", 1, 20, 0.5), ("super", 2, 20, 0.6), ("super", 3, 18, 0.7),
    ("vdeck", 3, 20, 0.6), ("vdeck", 4, 18, 0.7),
    ("edeck", 2, 18, 0.5), ("edeck", 3, 18, 0.6),
    ("tdeck", 3, 16, 0.6), ("tdeck", 4, 20, 0.7),
]


class OracleMismatch(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMismatch(what)


def gnm(n: int, p: float, seed: int) -> Graph:
    """G(n, m) with m = round(p * C(n, 2)): "about G(n, p)" without the spread
    in edge count, which at high density moves the clique count by a factor
    of two or more between instances."""
    pairs = list(itertools.combinations(range(n), 2))
    chosen = permutation(len(pairs), seed)[:round(p * len(pairs))]
    return Graph.from_edges(n, [pairs[i] for i in chosen])


def banded(make, size, count: int, band: float = BAND, floor: float = 0) -> list:
    """`count` draws of make() whose size lies within `band` of the pilot
    median, or within `floor` of it where that is wider."""
    drawn = [make() for _ in range(PILOT)]
    target = statistics.median(size(x) for x in drawn)
    kept = []
    while len(kept) < count:
        x = drawn.pop(0) if drawn else make()
        if abs(size(x) - target) <= max(band * target, floor):
            kept.append(x)
    return kept


def oracle_cliques(g) -> list[tuple[int, ...]]:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return [tuple(sorted(c)) for c in nx.enumerate_all_cliques(nxg)]


def oracle_counts(g) -> tuple[int, ...]:
    """Clique counts from a code path that shares nothing with the kernel."""
    if g.n <= 20:
        counts = brute_force_counts(g)
    else:
        per: dict[int, int] = {}
        for c in oracle_cliques(g):
            per[len(c)] = per.get(len(c), 0) + 1
        counts = tuple(per[k] for k in range(1, max(per, default=0) + 1))
    if g.n:
        require(counts[0] == g.n, "c1 != n")
    require((counts[1] if len(counts) > 1 else 0) == g.m, "c2 != m")
    require((counts[2] if len(counts) > 2 else 0) == len(triangles(g)), "c3 != triangles")
    return counts


def campaign_sample(seed: int):
    """The (n, p, graph) that run_campaign draws for samples=1 and this seed."""
    stream = Splitmix64(seed)
    n_lo, n_hi = CAMPAIGN_N_RANGE
    p_lo, p_hi = CAMPAIGN_P_RANGE
    n = n_lo + stream.next_u64() % (n_hi - n_lo + 1)
    p = p_lo + (stream.next_u64() / 2.0**64) * (p_hi - p_lo)
    return n, p, random_gnp(n, p, RngSpec(stream.next_u64()))


def campaign_config(seed: int) -> CampaignConfig:
    return CampaignConfig(
        n_range=CAMPAIGN_N_RANGE, p_range=CAMPAIGN_P_RANGE, samples=1,
        rng=RngSpec(seed), checks=("all-theorems",),
    )


def build_campaign() -> dict:
    n_lo, n_hi = CAMPAIGN_N_RANGE
    p_lo, p_hi = CAMPAIGN_P_RANGE
    templates = []
    for index, (n, b) in enumerate(
        (n, b) for n in range(n_lo, n_hi + 1) for b in range(CAMPAIGN_P_BINS)
    ):
        candidates = splitmix64(0xC0FFEE + index)

        def make():
            """The next candidate seed whose campaign graph falls in this cell."""
            while True:
                seed = next(candidates) >> 1
                sample_n, p, g = campaign_sample(seed)
                cell = min(int((p - p_lo) / (p_hi - p_lo) * CAMPAIGN_P_BINS),
                           CAMPAIGN_P_BINS - 1)
                if (sample_n, cell) == (n, b):
                    return seed, g

        items = []
        for seed, g in banded(make, lambda x: sum(clique_counts(x[1])),
                              CAMPAIGN_PER_TEMPLATE, floor=CAMPAIGN_BAND_FLOOR):
            report = run_campaign(campaign_config(seed))
            require(report.theorem_failures == 0, f"theorem failure at seed {seed}")
            counts = oracle_counts(g)
            require(clique_counts(g) == counts, f"counts differ at seed {seed}")
            omega, m, t = len(counts), g.m, len(triangles(g))
            # a check is not applicable when it has no parameter instance to run
            not_applicable = {
                "edge_recurrence": m == 0,
                "clique_deletion": m == 0,
                "triangle_identity": t == 0,
                "third_derivative_k5free": omega >= 5,
                "triangle_deletion_counts": omega >= 5 or t == 0,
            }
            for name, tally in report.tallies.items():
                require(tally.tested == 1 and tally.fails == 0, f"{name} at seed {seed}")
                require(tally.not_applicable == not_applicable.get(name, False),
                        f"{name} applicability at seed {seed}")
            items.append([seed, digest(report.to_text())])
        templates.append({"n": n, "p_bin": b, "items": items})
    return {"n_range": list(CAMPAIGN_N_RANGE), "p_range": list(CAMPAIGN_P_RANGE),
            "templates": templates}


def build_dense_poly() -> dict:
    templates = []
    for t, (n, p) in enumerate(DENSE_TEMPLATES):
        seeds = splitmix64(0xD0000 + t)

        def make():
            g = gnm(n, p, next(seeds))
            return g, clique_polynomial(g)

        items = []
        for g, poly in banded(make, lambda x: sum(x[1]), DENSE_PER_TEMPLATE, DENSE_BAND):
            require(poly == [1, *oracle_counts(g)], f"polynomial of {to_graph6(g)}")
            items.append([to_graph6(g), poly])
        templates.append({"n": n, "p": p, "items": items})
        print(f"dense_poly G({n}, {p}) done", file=sys.stderr, flush=True)
    return {"templates": templates}


def oracle_matrix(g, kind: str, k: int):
    """Labels and entries of the matrix, straight from the definitions."""
    by_size: dict[int, list] = {}
    for c in oracle_cliques(g):
        by_size.setdefault(len(c), []).append(c)
    rows = sorted(by_size.get(k, []))
    if kind == "super":
        cols = sorted(by_size.get(k + 1, []))
        hit = lambda q, c: set(q) <= set(c)
    elif kind == "vdeck":
        cols = [(v,) for v in range(g.n)]
        hit = lambda q, c: c[0] not in q
    elif kind == "edeck":
        cols = sorted(tuple(sorted(e)) for e in g.edges())
        hit = lambda q, c: not (c[0] in q and c[1] in q)
    else:
        cols = sorted(by_size.get(3, []))
        hit = lambda q, c: len(set(q) & set(c)) <= 1
    entries = {(i, j) for i, q in enumerate(rows) for j, c in enumerate(cols) if hit(q, c)}
    return rows, cols, entries


def cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    require(code == 0, f"cliquekit {' '.join(argv)} exited {code}")
    return buf.getvalue()


def build_matrix_export() -> dict:
    templates = []
    for t, (kind, k, n, p) in enumerate(MATRIX_TEMPLATES):
        seeds = splitmix64(0xA0000 + t)

        def make():
            g = gnm(n, p, next(seeds))
            return g, getattr(cliquekit, MATRIX_BUILDERS[kind])(g, k)

        items = []
        for g, m in banded(make, lambda x: x[1].shape[0] * x[1].shape[1], MATRIX_PER_TEMPLATE):
            g6 = to_graph6(g)
            rows, cols, entries = oracle_matrix(g, kind, k)
            require(list(m.row_labels) == rows and list(m.col_labels) == cols
                    and set(m.entries) == entries, f"{kind} k={k} matrix of {g6}")
            row_sums = [0] * len(rows)
            col_sums = [0] * len(cols)
            for i, j in entries:
                row_sums[i] += 1
                col_sums[j] += 1
            if kind == "vdeck":
                require(all(s == n - k for s in row_sums), f"vdeck row sums of {g6}")
            if kind == "edeck":
                require(all(s == g.m - comb(k, 2) for s in row_sums), f"edeck row sums of {g6}")
            if kind == "super":
                require(all(s == k + 1 for s in col_sums), f"super column sums of {g6}")
            csv_text = m.to_csv()
            json_text = json.dumps(m.to_json_dict(), sort_keys=True, indent=2) + "\n"
            base = ["matrix", "-g", g6, "--kind", kind, "--k", str(k)]
            require(cli_stdout(base) == csv_text, f"CSV of {g6}")
            require(cli_stdout(base + ["--format", "json"]) == json_text, f"JSON of {g6}")
            items.append({"g6": g6, "csv": digest(csv_text), "json": digest(json_text),
                          "total": len(entries)})
        templates.append({"kind": kind, "k": k, "n": n, "p": p, "items": items})
        print(f"matrix_export {kind} k={k} G({n}, {p}) done", file=sys.stderr, flush=True)
    return {"templates": templates}


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    which = sys.argv[1:] or ["campaign", "dense_poly", "matrix_export"]
    builders = {"campaign": build_campaign, "dense_poly": build_dense_poly,
                "matrix_export": build_matrix_export}
    for name in which:
        data = builders[name]()
        data["cliquekit_version"] = cliquekit.__version__
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote reference/{name}.json", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
