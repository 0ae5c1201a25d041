"""Shared pieces of the benchmark: inputs, statistics, environment, output."""

from __future__ import annotations

import json
import math
import os
import platform
import random
import statistics
import subprocess
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch output (spans, the served database directory); git-ignored.
OUT = os.path.join(ROOT, ".perfbench_out")


class BenchmarkError(Exception):
    """A correctness check failed: the run reports correct=false."""


# ---------------------------------------------------------------------------
# the "software project" graph over sum_node_schema
# ---------------------------------------------------------------------------


@dataclass
class ProjectPlan:
    """A generated graph, independent of any database.

    Node ``k`` has weight ``weights[k]`` and receives the totals of
    ``inputs[k]``.  Groups are a few chains of equal length; cross-links
    join chain ``a`` position ``i`` to chain ``b`` position ``j > i`` of
    the same group, so every edge points to a later position and the
    graph is acyclic.
    """

    weights: list[int]
    inputs: list[list[int]]
    #: per group, per chain: node indices head first.
    groups: list[list[list[int]]]

    def totals(self, nodes, weights: list[int] | None = None) -> dict[int, int]:
        """Recompute ``total`` for ``nodes`` from weights and links alone."""
        weights = self.weights if weights is None else weights
        memo: dict[int, int] = {}

        def total(k: int) -> int:
            value = memo.get(k)
            if value is None:
                value = weights[k] + sum(total(u) for u in self.inputs[k])
                memo[k] = value
            return value

        return {k: total(k) for k in nodes}


def plan_project(
    rng: random.Random, n_instances: int, chains: int, length: int, cross_links: int
) -> ProjectPlan:
    weights: list[int] = []
    inputs: list[list[int]] = []
    groups: list[list[list[int]]] = []
    while len(weights) < n_instances:
        group = []
        for __ in range(chains):
            chain = []
            for __ in range(length):
                chain.append(len(weights))
                weights.append(rng.randrange(1, 10))
                inputs.append([])
            for up, down in zip(chain, chain[1:]):
                inputs[down].append(up)
            group.append(chain)
        for __ in range(cross_links):
            a, b = rng.sample(range(chains), 2)
            i = rng.randrange(length - 1)
            j = rng.randrange(i + 1, length)
            up, down = group[a][i], group[b][j]
            if up not in inputs[down]:
                inputs[down].append(up)
        groups.append(group)
    return ProjectPlan(weights, inputs, groups)


def build_project(db, plan: ProjectPlan) -> list[int]:
    """Create the plan's nodes and links, one batched transaction per group.

    Returns the instance id of every plan node.
    """
    iids = [0] * len(plan.weights)
    for group in plan.groups:
        with db.transaction("group", batch=True):
            members = [k for chain in group for k in chain]
            for k in members:
                iids[k] = db.create("node", weight=plan.weights[k])
            for k in members:
                for up in plan.inputs[k]:
                    db.connect(iids[k], "inputs", iids[up], "outputs")
    return iids


def warm_project(db, plan: ProjectPlan, iids: list[int]) -> None:
    """Demand every chain tail once, so no derived slot is left marked."""
    for group in plan.groups:
        for chain in group:
            db.get_attr(iids[chain[-1]], "total")


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
#
# The CPU this benchmark gets is shared with other tenants, and its speed
# swings by a third or more for seconds to minutes at a time: a fixed
# loop's time moves between two levels that no run length averages out.
# So the timed phase also times a fixed reference loop, between
# operations, every REFERENCE_INTERVAL seconds (about 2% of the phase),
# and each latency and each window's throughput is scaled by how much
# slower than REFERENCE_S that loop ran in the same window.  A change to
# the program moves the scaled figures as much as the raw ones; a slower
# host moves the reference with them.  The match is not exact -- memory-
# bound work slows by its own factor -- which is why medians over windows
# and chunks stay.  The raw figures are printed on the ``host:`` line.

#: about the reference loop's median time on a 2-vCPU cloud VM under
#: CPython 3.11; it only sets the scale of the scaled figures.
REFERENCE_S = 3.5e-4
REFERENCE_INTERVAL = 0.02
_REFERENCE_TABLE = {k: (k * 7919) % 1009 for k in range(1024)}


def reference_loop() -> int:
    """Fixed interpreter work: dict lookups, integer arithmetic, a branch."""
    table = _REFERENCE_TABLE
    total = 0
    for k in range(2500):
        value = table[k & 1023]
        if value & 1:
            total += value
        else:
            total -= k
    return total


@dataclass
class HostSpeed:
    """Times of the reference loop through a timed phase."""

    stamps: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    next_at: float = 0.0

    def sample(self) -> None:
        began = perf_counter()
        reference_loop()
        done = perf_counter()
        self.stamps.append(done)
        self.costs.append(done - began)
        self.next_at = done + REFERENCE_INTERVAL

    def slowdowns(self, start: float, seconds: float, width: float) -> list[float]:
        """Per window of :func:`windows`: median reference time / REFERENCE_S.

        A window without a sample takes the run's median.
        """
        if not self.costs:
            raise BenchmarkError("the reference loop never ran")
        count, width = windows(seconds, width)
        per: list[list[float]] = [[] for __ in range(count)]
        for stamp, cost in zip(self.stamps, self.costs):
            slot = int((stamp - start) / width)
            if 0 <= slot < count:
                per[slot].append(cost)
        overall = statistics.median(self.costs)
        return [statistics.median(costs or [overall]) / REFERENCE_S for costs in per]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise BenchmarkError("no samples for a percentile")
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


#: latency samples per chunk: enough for ten samples beyond the p99.
CHUNK = 1000
#: throughput is counted per window of this many seconds.
WINDOW_SECONDS = 1.0
#: the host's speed for latencies is taken per window of this many
#: seconds: it can change from one second to the next.
HOST_WINDOW_SECONDS = 0.25


def windows(seconds: float, width: float = WINDOW_SECONDS) -> tuple[int, float]:
    """How many windows of about ``width`` tile a phase of ``seconds``, and
    their exact width."""
    count = max(1, int(seconds / width))
    return count, seconds / count


def scale(values: list[float], stamps: list[float], start: float, seconds: float, host) -> list:
    """``values`` divided by the host's slowdown in the window of their stamps."""
    slowdowns = host.slowdowns(start, seconds, HOST_WINDOW_SECONDS)
    __, width = windows(seconds, HOST_WINDOW_SECONDS)
    last = len(slowdowns) - 1
    return [
        value / slowdowns[min(last, max(0, int((stamp - start) / width)))]
        for value, stamp in zip(values, stamps)
    ]


def latency_summary(samples: list[float]) -> dict:
    """p50 / p99 in milliseconds, as medians over chunks of the run.

    ``samples`` are in the order the operations ran.  They are cut into
    consecutive chunks of ``CHUNK`` samples (the remainder joins the last
    chunk); each chunk gives its own p50 and p99 and the run reports the
    median over chunks, so a burst of lost CPU moves one chunk, not the
    result.
    """
    if not samples:
        raise BenchmarkError("no latency samples")
    count = max(1, len(samples) // CHUNK)
    chunks = [samples[i * CHUNK : (i + 1) * CHUNK] for i in range(count - 1)]
    chunks.append(samples[(count - 1) * CHUNK :])
    p50s, p99s = [], []
    for chunk in chunks:
        ordered = sorted(chunk)
        p50s.append(percentile(ordered, 0.50))
        p99s.append(percentile(ordered, 0.99))
    smallest = min(len(chunk) for chunk in chunks)
    return {
        "p50_ms": 1e3 * statistics.median(p50s),
        "p99_ms": 1e3 * statistics.median(p99s),
        "samples": len(samples),
        "chunks": count,
        "beyond_p99_per_chunk": smallest - math.ceil(0.99 * smallest),
    }


def windowed_rates(ends: list[float], start: float, seconds: float) -> list:
    """Completions per second in each window, ``None`` where too few.

    ``ends`` are the completion times of successful operations.  Windows
    tile ``[start, start + seconds)``; a window's rate is its completions
    after the first divided by the time from its first completion to its
    last, so it does not depend on where the window edges fall.
    """
    count, width = windows(seconds)
    firsts: list[float | None] = [None] * count
    lasts = [0.0] * count
    counts = [0] * count
    for end in ends:
        slot = int((end - start) / width)
        if 0 <= slot < count:
            if firsts[slot] is None:
                firsts[slot] = end
            lasts[slot] = end
            counts[slot] += 1
    return [
        (n - 1) / (last - first) if n > 1 and last > first else None
        for n, first, last in zip(counts, firsts, lasts)
    ]


def median_rate(rates: list) -> float:
    measured = [rate for rate in rates if rate is not None]
    if not measured:
        raise BenchmarkError("too few completions to measure throughput")
    return statistics.median(measured)


def rss_bytes(pid: int | str = "self") -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise BenchmarkError("no VmRSS in /proc status")


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------


def commit_id() -> str:
    """The checked-out commit, or "unknown" unless ROOT is a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return "unknown"
    toplevel, head = lines
    return head if os.path.realpath(toplevel) == os.path.realpath(ROOT) else "unknown"


def environment(args, **sizes) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **sizes,
    }


def emit(label: str, payload) -> None:
    """One informational line (never the last line of the output)."""
    print(f"{label}: {json.dumps(payload, sort_keys=True)}", flush=True)


def declared_metrics(section: str, values: dict, default: float | None = None) -> dict:
    """``values`` named and united as ``BENCHMARK.json`` declares ``section``.

    A value for an undeclared name is an error, and so is a declared name
    without a value unless ``default`` stands in for it.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        units = {entry["name"]: entry["unit"] for entry in json.load(handle)[section]}
    undeclared = set(values) - set(units)
    missing = set(units) - set(values) if default is None else set()
    if undeclared or missing:
        raise ValueError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(undeclared)}, missing {sorted(missing)}"
        )
    return {
        name: {"value": float(values.get(name, default)), "unit": unit}
        for name, unit in units.items()
    }


def check_determinism(workload: str, counts: list[dict], context: dict) -> None:
    """Every replica of a single-caller workload must repeat its counts."""
    for other in counts[1:]:
        if other != counts[0]:
            raise BenchmarkError(
                f"{workload}: counts differ between replicas: {counts[0]} vs {other}"
            )
    emit(
        "determinism",
        {"replicas": len(counts), "repeat": True, "counts": counts[0], **context},
    )
