"""cliquekit benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cliquekit is imported from src/.
--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 runs
the same items once untraced and once with every layer wrapped, and prints
the per-layer metrics.  The last line of stdout is one JSON object; the exit
code is 0 only if every output matched its reference.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from time import perf_counter

from common import BENCH_DIR, PROBE_REF_S, load_reference

ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_SPAWNS = 5
IMPORT_PROBES = 3
DEADLINE_S = 170.0

# round_s: seconds one round (every template once) took on a 2-core x86-64
# sandbox at the seed commit; --seconds is turned into a fixed number of
# rounds, so a faster commit runs the same inputs in less time.
WORKLOADS = {
    "campaign": {
        "why": "The theorem-regression sweep: run_campaign on one small G(n, p) graph per "
               "item, bound by per-call overhead (Graph rebuilds, to_graph6, neighbourhood "
               "subgraphs) over many mostly repeated clique enumerations.",
        "round_s": 1.0,
        "work_unit": "graphs",
        "aliases": {"work_per_s": "campaign_graphs_per_s",
                    "item_p50_ms": "campaign_graph_p50_ms",
                    "item_tail_ms": "campaign_graph_tail_ms"},
    },
    "dense_poly": {
        "why": "One clique_polynomial call per item, from G(64, 0.5) to G(36, 0.85): the "
               "counting kernel alone, where listing cliques costs memory; the sparse end "
               "shows whether a kernel change slows large sparse graphs.",
        "round_s": 2.6,
        "work_unit": "cliques",
        "aliases": {"work_per_s": "poly_cliques_per_s",
                    "item_p50_ms": "poly_graph_p50_ms",
                    "item_tail_ms": "poly_graph_tail_ms"},
    },
    "matrix_export": {
        "why": "Build, render as CSV and JSON, double-count and query super/vdeck/edeck/tdeck "
               "matrices: the only workload that lists cliques instead of counting them and "
               "the only one that exercises the incidence layer.",
        "round_s": 0.87,
        "work_unit": "cells",
        "aliases": {"work_per_s": "matrix_cells_per_s",
                    "item_p50_ms": "matrix_export_p50_ms",
                    "item_tail_ms": "matrix_export_tail_ms"},
    },
}

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s",
             "item_p50_ms": "ms", "item_tail_ms": "ms", "work_per_s": "1/s"}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # string hashing, and so set order, repeats across runs
    return env


def spawn(workload: str, seed: int, rounds: int, mode: str, deadline: float):
    """Start a worker; return (seconds until it was ready, its JSON result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--rounds", str(rounds), "--mode", mode]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker failed (exit {proc.returncode})")
    return ready, (json.loads(out.strip().splitlines()[-1]) if mode != "setup" else None)


def scaled(result: dict) -> list[float]:
    """Item times at the speed probe's reference speed.

    Each item's time is multiplied by PROBE_REF_S over the median of the six
    probe times around it (three before, three after), so that a slow spell
    of a shared host does not read as a slower program.
    """
    durations, probes = result["durations"], result["probes"]
    return [d * PROBE_REF_S / statistics.median(probes[max(0, i - 2):i + 4])
            for i, d in enumerate(durations)]


def tail_index(n: int) -> int:
    """Position, in ascending order, of the highest percentile with at least
    ten samples beyond it."""
    return max(0, n - 11)


def timing(durations: list[float], work: int) -> dict[str, float]:
    wall = sum(durations)
    return {
        "wall_s": wall,
        "item_p50_ms": statistics.median(durations) * 1e3,
        "item_tail_ms": sorted(durations)[tail_index(len(durations))] * 1e3,
        "work_per_s": work / wall,
    }


def import_times() -> tuple[float, float]:
    """Median ms to import cliquekit.cli and the numpy part of it, by -X importtime."""
    totals, numpys = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cliquekit.cli"],
                              capture_output=True, text=True, cwd=ROOT, env=worker_env(),
                              timeout=60)
        if proc.returncode != 0:
            raise WorkerError("importing cliquekit.cli failed")
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", line)
            if m:
                # nested imports are indented; keep the package's own line
                cumulative.setdefault(m.group(3), (len(m.group(2)), int(m.group(1))))
        top = sum(us for name, (depth, us) in cumulative.items()
                  if depth == 0 and name.split(".")[0] == "cliquekit")
        totals.append(top / 1e3)
        numpys.append(cumulative.get("numpy", (0, 0))[1] / 1e3)
    return statistics.median(totals), statistics.median(numpys)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def rounds_for(workload: str, seconds: int) -> int:
    pool = min(len(t["items"]) for t in load_reference(workload)["templates"])
    return max(2, min(pool, round(seconds / WORKLOADS[workload]["round_s"])))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cliquekit" / "__init__.py").is_file():
        print(f"error: no cliquekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    spec = WORKLOADS[args.workload]
    rounds = rounds_for(args.workload, args.seconds)

    if args.trace:
        _, base = spawn(args.workload, args.seed, rounds, "run", deadline)
        _, result = spawn(args.workload, args.seed, rounds, "trace", deadline)
        import_ms, numpy_ms = import_times()
        layers = result["layers"]
        layers["cli.import_ms"] = import_ms
        layers["cli.numpy_import_ms"] = numpy_ms
        layers["trace.overhead_frac"] = sum(scaled(result)) / sum(scaled(base)) - 1
        units = {"cli.import_ms": "ms", "cli.numpy_import_ms": "ms",
                 "cliques.distinct_input_ratio": "ratio", "trace.overhead_frac": "ratio"}
        metrics = {name: metric(value, units.get(name, "s" if name.endswith("_s") else "count"))
                   for name, value in layers.items()}
        failures = base["failures"] + result["failures"]
        attempted = len(base["durations"]) + len(result["durations"])
    else:
        setups = [spawn(args.workload, args.seed, rounds, "setup", deadline)[0]
                  for _ in range(SETUP_SPAWNS)]
        ready, result = spawn(args.workload, args.seed, rounds, "run", deadline)
        setups.append(ready)
        work = sum(result["work"])
        unscaled = timing(result["durations"], work)
        values = {"setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_kb"] / 1024,
                  **timing(scaled(result), work)}
        metrics = {name: metric(value, E2E_UNITS[name]) for name, value in values.items()}
        failures = result["failures"]
        attempted = len(result["durations"])

    info = {
        "workload": args.workload, "why": spec["why"], "seed": args.seed,
        "items": len(result["durations"]), "rounds": rounds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "source_sha256": source_digest(),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    for problem in failures[:10]:
        print(f"MISMATCH {problem}")
    if not args.trace:
        aliases = spec["aliases"]
        print(f"error_rate {len(failures) / attempted:.4f} ({len(failures)} of {attempted})")
        for name, m in metrics.items():
            label = aliases.get(name, name)
            unit = f"{spec['work_unit']}/s" if name == "work_per_s" else m["unit"]
            extra = f" [unscaled {unscaled[name]:.6g}]" if name in unscaled else ""
            if name == "item_tail_ms":
                n = len(result["durations"])
                extra += f" (p{100 * (tail_index(n) + 1) / n:.1f} of {n} items)"
            print(f"{label} {m['value']:.6g} {unit}{extra}")
    else:
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
