"""The ``served_session`` server process: set up, serve, dump the trace.

Started by ``served_session.py`` as
``python3 perfbench/server_launcher.py --dir D --seed N --trace 0|1``
with ``src`` on ``PYTHONPATH``.  The sizes of the workload are the
constants below, which ``served_session.py`` imports too.  The launcher
sets the database up ``SETUPS`` times, each in a fresh directory under
``D`` (``Database.open(path, sync=False)``, build, warm, one
checkpoint), keeps the last one, starts a
:class:`~repro.server.server.ReproServer` on an ephemeral port and
prints one ``ready`` JSON line.  It then serves until killed.

In a traced run two signals drive the tracer: ``SIGUSR2`` installs it
(the second half of the timed phase), ``SIGUSR1`` removes it, writes the
spans and a per-request summary under ``D`` and prints ``dumped``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import shutil
import signal
import sys
from time import perf_counter

import common
import layers
from tracing import END, NAME, PARENT, REQUEST, START, Tracer, inherit_requests

#: the project graph of ``edit_wave`` at a fifth of the size.
INSTANCES = 20_000
CHAINS = 4
LENGTH = 16
CROSS_LINKS = 8
#: a pool that holds every block.
POOL_FRAMES = 4096
#: set-ups per run; setup_s is their median.
SETUPS = 2


def request_key(request) -> int | None:
    """Span request ids are wire ids, or ``c<conn>.t<wire id>`` handle names."""
    if isinstance(request, int):
        return request
    if isinstance(request, str) and ".t" in request:
        return int(request.rsplit(".t", 1)[1])
    return None


def summarize(tracer: Tracer, since: int, setup_spans: int, leaves_before: dict) -> dict:
    """Per-name self time, leaf totals and per-request attribution.

    Covers the spans from ``since`` on (the traced half of the load);
    set-up spans (the first ``setup_spans``) are summarised apart.
    """
    spans = tracer.spans
    inherit_requests(spans)
    stats = layers.span_stats(tracer, since)
    requests: dict[int, dict] = {}
    for record in spans[since:]:
        key = request_key(record[REQUEST])
        if key is None:
            continue
        entry = requests.setdefault(
            key,
            {"spans": 0.0, "steps": 0, "step_s": 0.0, "submit_end": None, "last_step_end": None},
        )
        if record[PARENT] < 0:
            entry["spans"] += record[END] - record[START]
        if record[NAME] == "server.admit":
            entry["submit_end"] = record[END]
        elif record[NAME] == "txn.step":
            entry["steps"] += 1
            entry["step_s"] += record[END] - record[START]
            entry["last_step_end"] = record[END]
    out = {}
    for key, entry in requests.items():
        if entry["submit_end"] is None or entry["last_step_end"] is None:
            continue  # straddles a tracer toggle
        wait = entry["last_step_end"] - entry["submit_end"] - entry["step_s"]
        out[key] = [entry["spans"], wait, entry["steps"]]
    leaves = {
        name: [now - then for now, then in zip(totals, leaves_before[name])]
        for name, totals in tracer.leaves.items()
    }
    setup = layers.span_stats(tracer, 0, setup_spans)
    return {"stats": stats, "setup": setup, "leaves": leaves, "requests": out}


def set_up(args, tracer):
    from repro.core.database import Database
    from repro.workloads import sum_node_schema

    plan = common.plan_project(random.Random(args.seed), INSTANCES, CHAINS, LENGTH, CROSS_LINKS)
    # Build one schema before the RSS baseline, so rss_bytes_per_instance
    # covers the instances and not the library's fixed cost.
    sum_node_schema()
    setups = []
    rss_growth = None
    setup_spans = 0
    db = None
    for index in range(SETUPS):
        path = os.path.join(args.dir, f"replica-{index}")
        if db is not None:
            db.close()
            shutil.rmtree(db.persistence.directory)
            db = None
        shutil.rmtree(path, ignore_errors=True)
        last = index == SETUPS - 1
        gc.collect()
        rss_before = common.rss_bytes()
        if tracer is not None and last:
            tracer.install()
        started = perf_counter()
        db = Database.open(path, sum_node_schema(), sync=False, pool_capacity=POOL_FRAMES)
        iids = common.build_project(db, plan)
        common.warm_project(db, plan, iids)
        db.checkpoint()
        setups.append(perf_counter() - started)
        if tracer is not None and last:
            tracer.uninstall()
            setup_spans = len(tracer.spans)
        if rss_growth is None:
            rss_growth = common.rss_bytes() - rss_before
    return db, iids, setups, rss_growth, path, setup_spans


async def serve(args) -> None:
    from repro.server.mux import ServerConfig
    from repro.server.server import ReproServer

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.register_layers(tracer)
    db, iids, setups, rss_growth, path, setup_spans = set_up(args, tracer)
    server = ReproServer(db, ServerConfig(port=0))
    host, port = await server.start()
    loop = asyncio.get_running_loop()
    traced_from = [0, {}]

    def start_tracing() -> None:
        traced_from[0] = len(tracer.spans)
        traced_from[1] = {name: list(v) for name, v in tracer.leaves.items()}
        tracer.install()

    def dump() -> None:
        tracer.uninstall()
        tracer.write(os.path.join(args.dir, "spans.jsonl"))
        with open(os.path.join(args.dir, "summary.json"), "w") as out:
            json.dump(summarize(tracer, traced_from[0], setup_spans, traced_from[1]), out)
        print(json.dumps({"dumped": True}), flush=True)

    if tracer is not None:
        loop.add_signal_handler(signal.SIGUSR2, start_tracing)
        loop.add_signal_handler(signal.SIGUSR1, dump)
    print(
        json.dumps(
            {
                "host": host,
                "port": port,
                "path": path,
                "setups": setups,
                "rss_growth": rss_growth,
                "instances": len(db),
                "iids_head": iids[:4],
                "iids_tail": iids[-4:],
            }
        ),
        flush=True,
    )
    await server.wait_stopped()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="served_session server process")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
