"""``served_session``: two pipelined connections to a server in its own process.

``server_launcher.py`` runs the server over ``Database.open(path,
sync=False)`` with about 2x10^4 ``sum_node_schema`` nodes (the project
graph of ``edit_wave`` at a fifth of the size) and a pool that holds
them all, and checkpoints once at the end of set-up.  Flush policy:
every commit is written and flushed to the operating system before the
reply, without fsync, on both sides of every comparison; fsyncs are
still reported as a count.

The load generator and the server are pinned to the same CPU.  The load
generator is one asyncio thread with ``CONNECTIONS`` connections,
each keeping ``WINDOW`` transactions in flight (a closed loop: a reply
releases the next request).  Transactions are short: reads (1-2
``get_attr`` of ``total``), writes (``set_attr`` of ``weight`` plus a
``get_attr`` of the written node's ``total``) and a small share of
inserts (``create`` plus ``connect`` to an existing node).  No two
in-flight writes touch the same node, so the last acknowledged value of
every node is known.

After the last acknowledgement the server is killed with SIGKILL; the
directory is reopened in this process and the reopen is timed
(``recovery_s``: checkpoint load plus WAL-tail replay).  Every
acknowledged write and insert must then read back, and sampled totals
must equal a recompute from the generated graph plus the acknowledged
writes.  Every reply must match exactly one request.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import common
import layers
from server_launcher import CHAINS, CROSS_LINKS, INSTANCES, LENGTH, POOL_FRAMES, SETUPS

CONNECTIONS = 2
WINDOW = 8
READ_SHARE = 0.45
WRITE_SHARE = 0.45  # the rest are inserts
CHECK_SAMPLES = 300
READY_TIMEOUT = 150.0
DRAIN_TIMEOUT = 30.0
#: trace runs: requests sent this soon after SIGUSR2 may predate the
#: tracer's installation and are left out of the attribution.
TOGGLE_MARGIN = 0.05


@dataclass
class Load:
    latencies: dict = field(default_factory=lambda: {"read": [], "write": []})
    #: when each latency sample's reply arrived, in the same order
    stamps: dict = field(default_factory=lambda: {"read": [], "write": []})
    host: common.HostSpeed = field(default_factory=common.HostSpeed)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    start: float = 0.0
    seconds: float = 0.0
    elapsed: float = 0.0
    #: completion time of every committed transaction
    ends: list = field(default_factory=list)
    #: per acknowledged request id: (send time, latency)
    timings: dict = field(default_factory=dict)
    #: committed writes: node index -> last acknowledged weight
    weights: dict = field(default_factory=dict)
    #: committed inserts: (new iid, weight, upstream plan node)
    inserts: list = field(default_factory=list)
    #: trace runs: when the tracer was switched on in the server
    toggled_at: float = 0.0

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def creation_order_iids(plan: common.ProjectPlan) -> list[int]:
    """The ids ``build_project`` hands out on a fresh database: 1, 2, ..."""
    iids = [0] * len(plan.weights)
    next_iid = 1
    for group in plan.groups:
        for chain in group:
            for k in chain:
                iids[k] = next_iid
                next_iid += 1
    return iids


def fail(load: Load, message: str) -> None:
    load.failed += 1
    if len(load.errors) < 5:
        load.errors.append(message)


async def drive(host, port, plan, iids, seed, seconds, toggle=None) -> Load:
    """The closed-loop load; ``toggle()`` is called once at half time."""
    from repro.server.protocol import encode_frame, read_frame

    rng = random.Random(seed)
    load = Load(seconds=seconds)
    #: per connection: request id -> (send time, kind, effect)
    pendings: list[dict[int, tuple]] = []
    writing: set[int] = set()
    next_id = [1]
    start = load.start = perf_counter()
    deadline = start + seconds
    half = start + seconds / 2

    def make_txn():
        roll = rng.random()
        if roll < READ_SHARE:
            nodes = [rng.randrange(len(iids)) for __ in range(rng.randint(1, 2))]
            return "read", [["get_attr", iids[k], "total"] for k in nodes], None
        if roll < READ_SHARE + WRITE_SHARE:
            node = rng.randrange(len(iids))
            while node in writing:
                node = rng.randrange(len(iids))
            writing.add(node)
            value = rng.randrange(1, 100)
            ops = [["set_attr", iids[node], "weight", value], ["get_attr", iids[node], "total"]]
            return "write", ops, ("write", node, value)
        upstream = rng.randrange(len(iids))
        value = rng.randrange(1, 100)
        ops = [
            ["create", "node", {"weight": value}],
            ["connect", {"$": 0}, "inputs", iids[upstream], "outputs"],
        ]
        return "write", ops, ("insert", upstream, value)

    def send(writer, pending) -> None:
        now = perf_counter()
        if toggle is not None and not load.toggled_at and now >= half:
            toggle()
            load.toggled_at = now
        kind, ops, effect = make_txn()
        rid = next_id[0]
        next_id[0] += 1
        pending[rid] = (perf_counter(), kind, effect)
        load.attempted += 1
        writer.write(encode_frame({"t": "txn", "id": rid, "ops": ops}))

    def settle(frame, pending) -> bool:
        """Account one reply; returns False when it matched no request
        outstanding on its connection."""
        now = perf_counter()
        entry = pending.pop(frame.get("id"), None)
        if entry is None:
            fail(load, f"reply matched no outstanding request: {frame!r}"[:200])
            return False
        sent, kind, effect = entry
        if effect is not None and effect[0] == "write":
            writing.discard(effect[1])
        if frame.get("t") != "result" or frame.get("status") != "committed":
            fail(load, f"transaction {frame.get('id')}: {frame!r}"[:200])
            return True
        load.latencies[kind].append(now - sent)
        load.stamps[kind].append(now)
        load.timings[frame["id"]] = (sent, now - sent)
        load.ends.append(now)
        if effect is not None:
            if effect[0] == "write":
                load.weights[effect[1]] = effect[2]
            else:
                load.inserts.append((frame["results"][0], effect[2], effect[1]))
        return True

    async def connection():
        reader, writer = await asyncio.open_connection(host, port)
        pending: dict[int, tuple] = {}
        pendings.append(pending)
        try:
            for __ in range(WINDOW):
                send(writer, pending)
            await writer.drain()
            while pending:
                frame = await read_frame(reader)
                if frame is None:
                    raise common.BenchmarkError("server closed a connection mid-run")
                if settle(frame, pending) and perf_counter() < deadline:
                    send(writer, pending)
                    await writer.drain()
        finally:
            writer.close()
            await writer.wait_closed()

    async def reference():
        # Client and server share one CPU, so this times the host for both.
        while perf_counter() < deadline:
            load.host.sample()
            await asyncio.sleep(common.REFERENCE_INTERVAL)

    await asyncio.wait_for(
        asyncio.gather(reference(), *(connection() for __ in range(CONNECTIONS))),
        timeout=seconds + DRAIN_TIMEOUT,
    )
    load.elapsed = perf_counter() - start
    unanswered = sum(len(pending) for pending in pendings)
    if unanswered:
        raise common.BenchmarkError(f"{unanswered} requests never answered")
    return load


async def server_metrics(host, port) -> dict:
    from repro.client import AsyncReproClient

    client = AsyncReproClient()
    await client.connect(host, port)
    try:
        return await client.metrics()
    finally:
        await client.close()


def read_line(proc, timeout: float) -> dict:
    """One JSON line from the server's stdout, or fail after ``timeout``."""
    ready, __, __ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise common.BenchmarkError("server process did not answer in time")
    line = proc.stdout.readline()
    if not line:
        raise common.BenchmarkError(f"server process exited (code {proc.poll()})")
    return json.loads(line)


def check_recovered(db, plan, iids, load: Load, seed: int) -> int:
    """Acknowledged writes and inserts read back; sampled totals recompute."""
    weights = list(plan.weights)
    for node, value in load.weights.items():
        weights[node] = value
    checks = 0
    for node, value in load.weights.items():
        got = db.get_attr(iids[node], "weight")
        if got != value:
            raise common.BenchmarkError(
                f"served_session: acknowledged weight {value} of {iids[node]} read back as {got}"
            )
        checks += 1
    upstream_totals = plan.totals([up for __, __, up in load.inserts], weights)
    for iid, value, upstream in load.inserts:
        if db.get_attr(iid, "weight") != value:
            raise common.BenchmarkError(f"served_session: inserted node {iid} lost its weight")
        if db.get_attr(iid, "total") != value + upstream_totals[upstream]:
            raise common.BenchmarkError(f"served_session: inserted node {iid} has a wrong total")
        checks += 1
    rng = random.Random(seed ^ 0xC4EC)
    nodes = [rng.randrange(len(iids)) for __ in range(CHECK_SAMPLES)]
    expected = plan.totals(nodes, weights)
    for node in nodes:
        got = db.get_attr(iids[node], "total")
        if got != expected[node]:
            raise common.BenchmarkError(
                f"served_session: total of {iids[node]} is {got}, recomputed {expected[node]}"
            )
        checks += 1
    return checks


def serve_and_load(args, command, base, plan, iids, tracer):
    """Start the server, run the load, SIGKILL it; returns what the load saw."""
    env = dict(os.environ, PYTHONPATH=common.SRC)
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=common.ROOT)
    try:
        # Client and server share one CPU: on a small VM, wakeups across
        # CPUs made the served figures swing far more run to run than the
        # program's own cost does.
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(proc.pid, {cpu})
        os.sched_setaffinity(0, {cpu})
        ready = read_line(proc, READY_TIMEOUT)
        if ready["iids_head"] != iids[:4] or ready["iids_tail"] != iids[-4:]:
            raise common.BenchmarkError("server built different instance ids than planned")
        host, port = ready["host"], ready["port"]
        before = asyncio.run(server_metrics(host, port))
        toggle = (lambda: proc.send_signal(signal.SIGUSR2)) if tracer is not None else None
        load = asyncio.run(drive(host, port, plan, iids, args.seed + 1, args.seconds, toggle))
        after = asyncio.run(server_metrics(host, port))
        summary = None
        if tracer is not None:
            proc.send_signal(signal.SIGUSR1)
            read_line(proc, READY_TIMEOUT)
            with open(os.path.join(base, "summary.json")) as handle:
                summary = json.load(handle)
            shutil.copy(
                os.path.join(base, "spans.jsonl"),
                os.path.join(common.OUT, "trace-served_session.jsonl"),
            )
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
    return load, ready, before, after, summary


def run(args, tracer=None) -> dict:
    from repro.core.database import Database
    from repro.workloads import sum_node_schema

    plan = common.plan_project(random.Random(args.seed), INSTANCES, CHAINS, LENGTH, CROSS_LINKS)
    iids = creation_order_iids(plan)
    base = os.path.join(common.OUT, f"served-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    command = [
        sys.executable,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "server_launcher.py"),
        "--dir", base,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
    ]
    try:
        load, ready, before, after, summary = serve_and_load(
            args, command, base, plan, iids, tracer
        )
        if tracer is not None:
            tracer.install()
        started = perf_counter()
        db = Database.open(
            ready["path"], sum_node_schema(), sync=False, pool_capacity=POOL_FRAMES
        )
        recovery_s = perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
        try:
            checks = check_recovered(db, plan, iids, load, args.seed)
            replayed = db.metrics()["wal"]["recovery_replayed"]
        finally:
            db.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    result = {
        "sizes": {
            "instances": ready["instances"],
            "groups": len(plan.groups),
            "pool_frames": POOL_FRAMES,
            "connections": CONNECTIONS,
            "window": WINDOW,
            "setups": SETUPS,
            "flush": "sync=False: write+flush per commit, no fsync",
            "inserted": len(load.inserts),
        },
        "phase": load,
        "phases": [load],
        "checks": checks,
        "setups": ready["setups"],
        "rss_bytes_per_instance": ready["rss_growth"] / ready["instances"],
        "extra": {"recovery_s": recovery_s, "replayed_records": replayed},
    }
    if tracer is not None:
        result["layers"] = layer_values(tracer, load, summary, before, after, replayed)
    return result


def layer_values(tracer, load: Load, summary: dict, before, after, replayed) -> dict:
    from repro.obs import MetricsSnapshot

    delta = MetricsSnapshot(after) - MetricsSnapshot(before)
    stats = summary["stats"]
    setup = summary["setup"]
    toggled_at = load.toggled_at
    traced = {
        int(rid): entry
        for rid, entry in summary["requests"].items()
        if int(rid) in load.timings and load.timings[int(rid)][0] >= toggled_at + TOGGLE_MARGIN
    }
    ops = len(traced)
    admitted = stats["server.admit"][1]

    def per_op(name):
        return stats.get(name, [0.0, 0])[0] / admitted

    def per_call(table, name):
        total, calls = table.get(name, [0.0, 0])
        return total / calls if calls else 0.0

    latency = sum(load.timings[rid][1] for rid in traced)
    attributed = sum(entry[0] + entry[1] for entry in traced.values())
    first_half = sum(1 for sent, __ in load.timings.values() if sent < toggled_at)
    second_half = len(load.timings) - first_half
    half_seconds = toggled_at - (min(s for s, __ in load.timings.values()))
    rest_seconds = load.elapsed - half_seconds
    server, cc, wal = delta["server"], delta["cc"], delta["wal"]
    txns = server["txns_submitted"] + server["txns_rejected"]
    commits = wal["commits_logged"]
    recover = layers.span_stats(tracer)  # the reopen, traced in this process
    touches = summary["leaves"]["storage.touch"]
    values = layers.counter_values(delta, txns, len(load.latencies["write"]))
    values.update({
        "server.decode_s": per_op("server.decode"),
        "server.encode_s": per_op("server.encode"),
        "server.admit_s": per_op("server.admit"),
        "server.wait_ms": 1e3 * sum(entry[1] for entry in traced.values()) / ops,
        "server.rejected_ratio": server["txns_rejected"] / txns,
        "txn.step_s": per_op("txn.step"),
        "txn.steps_per_txn": sum(entry[2] for entry in traced.values()) / ops,
        "txn.restarts_per_txn": cc["transactions_restarted"]
        / max(1, cc["transactions_committed"]),
        "txn.commit_s": per_op("txn.commit"),
        "txn.history_length": after["txn"]["history_length"],
        "evaluation.mark_s": per_op("evaluation.mark"),
        "evaluation.demand_s": per_op("evaluation.demand"),
        "evaluation.scheduler_s": per_op("evaluation.scheduler"),
        "storage.touch_s": touches[2] / ops,
        "storage.touches_per_op": touches[0] / ops,
        "compile.plans_built": after["compile"]["plans_built"],
        "core.create_s": per_call(setup, "core.create"),
        "core.connect_s": per_call(setup, "core.connect"),
        "persistence.wal_append_s": per_call(stats, "persistence.wal_append"),
        "persistence.wal_bytes_per_commit": wal["bytes_appended"] / commits,
        "persistence.fsyncs_per_commit": wal["fsyncs"] / commits,
        "persistence.recover_s": per_call(recover, "persistence.recover"),
        "persistence.replayed_records": replayed,
        "persistence.checkpoint_s": per_call(setup, "persistence.checkpoint"),
        "trace.overhead_pct": 100.0
        * (1.0 - (second_half / rest_seconds) / (first_half / half_seconds)),
        "trace.unattributed_pct": 100.0 * (1.0 - attributed / latency),
    })
    return values
