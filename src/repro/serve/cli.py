"""CLI wiring for the job server: ``python -m repro serve``.

Starts the persistent server in the foreground and runs until
interrupted (SIGINT or SIGTERM, both shut down cleanly); ``--trace-out``
writes the serving spans as a Chrome trace on shutdown (the CI smoke
uploads this as an artifact). Tenant policies
come from repeated ``--tenant name=rate:burst:max_in_flight:weight``
flags; unnamed tenants get the default policy.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
from typing import Dict

from repro.serve.scheduler import TenantPolicy
from repro.serve.server import JobServer

__all__ = ["add_serve_parser"]


def _parse_tenant(spec: str) -> "tuple[str, TenantPolicy]":
    """``name=rate:burst:max_in_flight:weight`` (trailing fields optional)."""
    name, _, raw = spec.partition("=")
    if not name or not raw:
        raise argparse.ArgumentTypeError(
            f"tenant spec must look like name=rate:burst:max:weight, got {spec!r}"
        )
    parts = raw.split(":")
    if len(parts) > 4:
        raise argparse.ArgumentTypeError(f"too many fields in {spec!r}")
    defaults = TenantPolicy()
    try:
        rate = float(parts[0]) if parts[0] else defaults.rate
        burst = float(parts[1]) if len(parts) > 1 and parts[1] else defaults.burst
        max_in_flight = (
            int(parts[2]) if len(parts) > 2 and parts[2] else defaults.max_in_flight
        )
        weight = float(parts[3]) if len(parts) > 3 and parts[3] else defaults.weight
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tenant spec {spec!r}: {exc}")
    return name, TenantPolicy(
        rate=rate, burst=burst, max_in_flight=max_in_flight, weight=weight
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    per_tenant: Dict[str, TenantPolicy] = dict(args.tenant or [])
    server = JobServer(
        host=args.host,
        port=args.port,
        pool_capacity=args.pool_capacity,
        prewarm=not args.no_prewarm,
        cache_capacity=args.cache_capacity,
        max_queued=args.max_queued,
        quantum_cells=args.quantum_cells,
        allow_faults=args.allow_faults,
        per_tenant=per_tenant,
    )

    async def _run() -> None:
        await server.start()
        print(f"dpx10 job server listening on {server.base_url}")
        print("  POST /jobs | GET /jobs/<id> | GET /metrics | GET /stats")
        await server.serve_forever()

    # SIGTERM (what process managers and `kill` send) takes the SIGINT
    # path: without this it skips the finally below and leaves the pool
    # workers and their /dev/shm segments behind
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        if args.trace_out:
            server.export_trace(args.trace_out)
            print(f"wrote serving trace to {args.trace_out}")
        server.close()
    return 0


def add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="run the persistent DP job server (warm places, HTTP/JSON API)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8787, help="0 picks an ephemeral port"
    )
    p.add_argument(
        "--pool-capacity",
        type=int,
        default=None,
        help="warm place processes to keep (default: max(4, cpu_count))",
    )
    p.add_argument(
        "--no-prewarm",
        action="store_true",
        help="fork workers lazily on first lease instead of at startup",
    )
    p.add_argument("--cache-capacity", type=int, default=128)
    p.add_argument(
        "--max-queued",
        type=int,
        default=32,
        help="global admitted-but-not-running cap before 429s",
    )
    p.add_argument(
        "--quantum-cells",
        type=float,
        default=4096.0,
        help="weighted-fair scheduling quantum in DP cells",
    )
    p.add_argument(
        "--allow-faults",
        action="store_true",
        help="accept chaos fault plans in job requests (soak testing)",
    )
    p.add_argument(
        "--tenant",
        action="append",
        type=_parse_tenant,
        metavar="NAME=RATE:BURST:MAX:WEIGHT",
        help="pin a tenant policy (repeatable); empty fields keep defaults",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        help="write a Chrome trace of serving spans here on shutdown",
    )
    p.set_defaults(fn=_cmd_serve)
