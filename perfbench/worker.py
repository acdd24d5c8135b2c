"""One workload process: set up the inputs, then run them in a closed loop.

    python3 perfbench/worker.py --workload W --seed S --rounds R --mode M

Prints `ready` once the inputs are built.  With --mode setup it stops there;
with --mode run or --mode trace it then runs every item, one at a time,
checks each output against the stored reference outside the timed region,
and prints one JSON line of raw results: item times, the speed probe's time
before and after each item, work done and mismatches.  run.py turns those
into metrics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from common import (
    BENCH_DIR,
    MATRIX_BUILDERS,
    SpeedProbe,
    digest,
    load_reference,
    permutation,
    splitmix64,
)

ROOT = BENCH_DIR.parent
QUERY_ROWS = 4
QUERY_COLS = 4
QUERY_ENTRIES = 8


def import_cliquekit():
    sys.path.insert(0, str(ROOT / "src"))
    import cliquekit

    if Path(cliquekit.__file__).resolve().parent != ROOT / "src" / "cliquekit":
        raise SystemExit(f"cliquekit was imported from {cliquekit.__file__}, not from src/")
    return cliquekit


def schedule(templates: list[dict], seed: int, rounds: int) -> list[tuple[int, int]]:
    """(template, instance) pairs: each round runs every template once, in a
    seeded order, on an instance no earlier round used."""
    draws = splitmix64(seed)
    picks = [permutation(len(t["items"]), next(draws)) for t in templates]
    order = []
    for r in range(rounds):
        for t in permutation(len(templates), next(draws)):
            order.append((t, picks[t][r]))
    return order


class Item:
    """One unit of work: run() is timed, check() is not."""

    work = 1

    def run(self, span) -> None:
        raise NotImplementedError

    def check(self) -> str | None:
        """None if the output matches the reference, else what differs."""
        raise NotImplementedError


class CampaignItem(Item):
    def __init__(self, ck, ref: dict, seed: int, text_digest: str) -> None:
        self.ck = ck
        self.cfg = ck.CampaignConfig(
            n_range=tuple(ref["n_range"]), p_range=tuple(ref["p_range"]), samples=1,
            rng=ck.RngSpec(seed), checks=("all-theorems",),
        )
        self.expected = text_digest

    def run(self, span) -> None:
        self.report = self.ck.run_campaign(self.cfg)

    def check(self) -> str | None:
        report, self.report = self.report, None
        if report.theorem_failures:
            return f"seed {self.cfg.rng.seed}: {report.theorem_failures} theorem failures"
        if digest(report.to_text()) != self.expected:
            return f"seed {self.cfg.rng.seed}: report text differs"
        return None


class PolyItem(Item):
    def __init__(self, ck, g6: str, poly: list[int]) -> None:
        self.ck = ck
        self.g6 = g6
        self.graph = ck.parse_graph6(g6)
        self.expected = poly
        self.work = sum(poly)

    def run(self, span) -> None:
        self.poly = self.ck.clique_polynomial(self.graph)

    def check(self) -> str | None:
        poly, self.poly = self.poly, None
        return None if poly == self.expected else f"{self.g6}: polynomial differs"


class MatrixItem(Item):
    def __init__(self, ck, template: dict, ref: dict, query_seed: int) -> None:
        self.ck = ck
        self.kind, self.k = template["kind"], template["k"]
        # looked up at run time, so a traced run calls the wrapped builder
        self.builder = MATRIX_BUILDERS[self.kind]
        self.graph = ck.parse_graph6(ref["g6"])
        self.ref = ref
        draws = splitmix64(query_seed)
        self.draws = [next(draws) for _ in range(QUERY_ROWS + QUERY_COLS + 2 * QUERY_ENTRIES)]

    def run(self, span) -> None:
        m = getattr(self.ck, self.builder)(self.graph, self.k)
        with span("incidence", "incidence.render"):
            self.csv_text = m.to_csv()
            self.json_text = json.dumps(m.to_json_dict(), sort_keys=True, indent=2) + "\n"
        self.sides = self.ck.double_count(m)
        rows, cols = m.shape
        draws = iter(self.draws)
        self.rows = [next(draws) % rows for _ in range(QUERY_ROWS)] if rows else []
        self.cols = [next(draws) % cols for _ in range(QUERY_COLS)] if cols else []
        self.cells = ([(next(draws) % rows, next(draws) % cols) for _ in range(QUERY_ENTRIES)]
                      if rows and cols else [])
        with span("incidence", "incidence.query"):
            self.row_sums = [m.row_sum(i) for i in self.rows]
            self.col_sums = [m.col_sum(j) for j in self.cols]
            self.values = [m.entry(i, j) for i, j in self.cells]
        self.work = rows * cols

    def check(self) -> str | None:
        g6, n, k = self.ref["g6"], self.graph.n, self.k
        where = f"{self.kind} k={k} {g6}"
        if digest(self.csv_text) != self.ref["csv"]:
            return f"{where}: CSV differs"
        if digest(self.json_text) != self.ref["json"]:
            return f"{where}: JSON differs"
        total = self.ref["total"]
        if tuple(self.sides) != (total, total):
            return f"{where}: double_count {self.sides} != ({total}, {total})"
        table = list(csv.reader(io.StringIO(self.csv_text)))
        body = [[int(x) for x in line[1:-1]] for line in table[1:-1]]
        row_sums = [int(line[-1]) for line in table[1:-1]]
        col_sums = [int(x) for x in table[-1][1:-1]]
        if self.kind == "vdeck" and any(s != n - k for s in row_sums):
            return f"{where}: a row sum differs from n - k"
        if self.kind == "super" and any(s != k + 1 for s in col_sums):
            return f"{where}: a column sum differs from k + 1"
        if (self.row_sums != [row_sums[i] for i in self.rows]
                or self.col_sums != [col_sums[j] for j in self.cols]
                or self.values != [body[i][j] for i, j in self.cells]):
            return f"{where}: a queried sum or entry differs"
        self.csv_text = self.json_text = None
        return None


def build_items(ck, workload: str, seed: int, rounds: int) -> list[Item]:
    ref = load_reference(workload)
    templates = ref["templates"]
    order = schedule(templates, seed, rounds)
    if workload == "campaign":
        return [CampaignItem(ck, ref, *templates[t]["items"][i]) for t, i in order]
    if workload == "dense_poly":
        return [PolyItem(ck, *templates[t]["items"][i]) for t, i in order]
    query_seeds = splitmix64(seed ^ 0x5EED)
    return [MatrixItem(ck, templates[t], templates[t]["items"][i], next(query_seeds))
            for t, i in order]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "dense_poly", "matrix_export"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    args = parser.parse_args()

    ck = import_cliquekit()
    items = build_items(ck, args.workload, args.seed, args.rounds)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    span = lambda layer, name: nullcontext()
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        span = tracer.span
    probe = SpeedProbe()
    probes = [probe()]
    durations, work, failures = [], [], []
    for item in items:
        start = perf_counter()
        try:
            item.run(span)
            problem = None
        except Exception as exc:  # a failing call is a failed item, not a failed run
            problem = f"{type(exc).__name__}: {exc}"
        durations.append(perf_counter() - start)
        probes.append(probe())
        work.append(item.work)
        problem = problem or item.check()
        if problem is not None:
            failures.append(problem)
    result = {
        "durations": durations,
        "probes": probes,
        "work": work,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
