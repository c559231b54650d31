"""The multiprocessing engine: places as real OS processes.

X10 realizes places as processes; the ``inline``/``threaded`` engines fold
them into one Python process. This engine does it for real:

* every place is a ``multiprocessing.Process`` holding its partition of
  the vertex matrix in its own address space;
* cross-place dependency values travel over one of two data planes. The
  default for numeric-dtype apps is **zero-copy shared memory**: the
  master creates value/finished planes in ``multiprocessing.
  shared_memory`` segments (lifecycle owned by :mod:`repro.core.shm`),
  workers attach them as NumPy views, read owned cells and halo strips
  directly, and write results in place — the pipes stay as the control
  plane (level batches, replies, stats). Object-dtype apps, spilled
  stores, unsupported platforms and runs under *message* chaos fall back
  to the original pickled pipe transport (so
  :class:`~repro.chaos.network.ChaosPipe` semantics are preserved); the
  network accounting records the true transfer sizes on both planes;
* a fault is a genuine ``SIGKILL`` of a place process, detected by the
  master, and recovery reassigns the dead partition to survivors and
  recomputes it — the paper's section VI-D protocol, against a real
  process corpse. In shm mode the plane regions owned by the dead place
  are zeroed and re-materialized by the recompute drain before any
  consumer reads them.

Execution is **level-synchronous**: the master groups vertices by
topological depth and drives one level at a time; within a level every
place computes its cells in parallel (true multi-core parallelism — no
GIL across processes). This is a bulk-synchronous rendering of the same
DAG; per-vertex scheduling strategies and the FIFO cache are inline/
threaded-engine concepts and do not apply here.

**Message hardening.** Every request carries a monotone per-pipe sequence
number and every reply echoes it. Workers deduplicate by sequence number
— a request seen twice (a duplicated or retried message) is answered from
a small reply cache without re-executing — and the master waits on a
per-message timeout, resending the *same* envelope with exponential
backoff before declaring the place dead. Replies whose sequence number
does not match the request in flight are stale duplicates and are
discarded. On a healthy pipe none of this machinery fires (the master
blocks exactly as a plain ``recv`` would); under ``repro.chaos`` message
chaos (drop / duplicate / delay / reorder injected by
:class:`~repro.chaos.network.ChaosPipe`) it is what keeps the run exact.

Selected with ``DPX10Config(engine="mp")``. On the pickled fallback,
sizes up to ~10^5 vertices are practical (the per-level pickling
round-trip dominates beyond that); the shm plane removes that wall —
tiled runs ship tile *indices* over the pipe and compute whole tiles
against the plane with the app's vectorized kernel. Because apps and
DAGs cross the pipe, both must be picklable — module-level classes, not
closures or test-local definitions.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import multiprocessing as mp
from collections import defaultdict
from collections.abc import Mapping
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.apgas.failure import FaultInjector, FaultPlan
from repro.core import plane as _plane
from repro.core.api import DPX10App, Vertex
from repro.core.config import DPX10Config
from repro.core.dag import Dag
from repro.core.trace import ExecutionTrace, Span, TraceEvent
from repro.errors import (
    AllPlacesDeadError,
    DPX10Error,
    PlaceZeroDeadError,
)
from repro.obs.metrics import DEFAULT_BYTES_BUCKETS, NULL_REGISTRY, MetricsRegistry
from repro.util.logging import get_logger

__all__ = ["run_mp", "MPRunStats"]

logger = get_logger("core.mp_engine")

Coord = Tuple[int, int]

_JOIN_TIMEOUT_S = 10.0
#: worker-side reply cache depth: how many past sequence numbers a place
#: can still answer idempotently (covers any realistic retry window —
#: the master has at most one request in flight per pipe)
_REPLY_CACHE = 64


class MPRunStats:
    """Accounting the master collects during an mp-engine run."""

    def __init__(self) -> None:
        self.completions = 0
        self.network_bytes = 0
        self.network_messages = 0
        #: request retransmissions after a reply timeout (chaos drops, or
        #: a genuinely slow place); 0 on a healthy run
        self.msg_retries = 0
        self.recoveries = 0
        self.per_place_executed: Dict[int, int] = {}
        self.levels = 0
        self.final_alive_places = 0
        #: compute-loop seconds measured inside each surviving place
        #: process (shipped back as a metrics snapshot on the reply
        #: channel at collect time; dead places' accounting is lost)
        self.worker_compute_seconds: Dict[int, float] = {}
        #: this run leased its place processes from a warm pool
        #: (config.place_pool) instead of forking them
        self.warm_start = False
        #: dead places restarted in place from pooled spares mid-run
        #: (the job keeps its distribution; only the lost cells recompute)
        self.pool_restarts = 0


class _ShmWorker:
    """Worker-side view of the shared-memory data plane.

    Attaches the value/finished segments the master created as a
    :class:`~repro.core.plane.TilePlane`, coarsens the DAG locally when
    the run is tiled (tile geometry is deterministic, so shipping the
    tile shape is enough), and serves the ``cells`` / ``tiles`` requests
    by reading dependencies straight off the plane and writing results
    in place — tiles through :func:`repro.core.plane.run_tile`, the
    executor the in-process engines run too. The only pipe traffic left
    is the unit index lists and the tiny ``done`` acknowledgements.

    Accounting: reads of cells homed on *other* places are the halo
    traffic the pipes used to carry; they feed
    ``dpx10_mp_shm_read_{bytes,batches}_total`` (folded into the master's
    network stats at collect time) and the ``dpx10_halo_fetch_bytes``
    histogram under the ``shm`` transport label.
    """

    def __init__(
        self,
        place_id: int,
        app: DPX10App,
        dag: Dag,
        meta: Dict[str, Any],
        registry: MetricsRegistry,
    ) -> None:
        from repro.core import shm

        self.place_id = place_id
        self.app = app
        self.dag = dag
        shape = meta["shape"]
        #: the owner map is unit-granular (tile grid or cell grid, -1 =
        #: inactive); Dist objects hold closures and cannot cross the
        #: pipe, so the master ships the resolved array (and again on
        #: redist)
        self.plane = _plane.TilePlane(
            shm.attach_array(meta["values"], shape, meta["dtype"]),
            shm.attach_array(meta["finished"], shape, np.uint8),
            meta["tile_shape"] or (1, 1),
            owners=meta["owners"],
        )
        self.tiled = None
        self.kernel = None
        if meta["tile_shape"] is not None:
            self.tiled = dag.coarsen(*meta["tile_shape"])
            autokernel = None
            spec = meta.get("autokernel")
            if spec is not None:
                # generated kernels close over compiled code objects and
                # cannot cross the pipe; the master ships its classified
                # spec instead, and each place re-emits from it — no
                # AST pipeline, no numeric probes, just codegen
                from repro.analysis.codegen import kernel_from_spec

                autokernel = kernel_from_spec(spec, app, dag)
            self.kernel = _plane.tile_kernel(app, self.tiled, autokernel)
        self.read_bytes = registry.counter(
            "dpx10_mp_shm_read_bytes_total",
            "bytes read from the shared-memory plane for remote-homed "
            "dependencies (the halo traffic the pipes used to carry)",
            ("place",),
        ).labels(place_id)
        self.read_batches = registry.counter(
            "dpx10_mp_shm_read_batches_total",
            "batched shared-memory halo reads (one per producing place "
            "per unit batch)",
            ("place",),
        ).labels(place_id)
        self.halo_bytes = registry.histogram(
            "dpx10_halo_fetch_bytes",
            "bytes moved per batched halo fetch",
            ("transport",),
            buckets=DEFAULT_BYTES_BUCKETS,
        ).labels("shm")

    def _record_remote(self, nbytes: int, nproducers: int = 1) -> None:
        if nbytes:
            self.read_bytes.inc(nbytes)
            self.read_batches.inc(nproducers)
            self.halo_bytes.observe(nbytes)

    def compute_cells(
        self, cells: Sequence[Coord], sink: Optional[list] = None
    ) -> int:
        """Per-cell compute against the plane (the untiled unit).

        ``sink`` (tracing on) receives one ``(i, j, home, t0, t1, cells,
        tile)`` record per cell with raw ``perf_counter`` stamps; the
        master normalizes them onto its own timeline at merge time.
        """
        app, dag = self.app, self.dag
        plane = self.plane
        values, finished, owners = plane.values, plane.finished, plane.owners
        remote = 0
        producers: Set[int] = set()
        for i, j in cells:
            t0 = time.perf_counter() if sink is not None else 0.0
            verts: List[Vertex] = []
            for d in dag.get_dependency(i, j):
                if not dag.is_active(d.i, d.j):
                    continue
                verts.append(Vertex(d.i, d.j, values[d.i, d.j].item()))
                owner = int(owners[d.i, d.j])
                if owner != self.place_id:
                    remote += 1
                    producers.add(owner)
            values[i, j] = app.compute(i, j, verts)
            finished[i, j] = 1
            if sink is not None:
                sink.append(
                    (i, j, self.place_id, t0, time.perf_counter(), 1, None)
                )
        self._record_remote(remote * plane.nbytes, len(producers))
        return len(cells)

    def compute_tiles(
        self, tiles: Sequence[Coord], sink: Optional[list] = None
    ) -> int:
        """Whole-tile compute against the plane (the tiled unit)."""
        tiled = self.tiled
        assert tiled is not None
        total = 0
        for tile in tiles:
            t0 = time.perf_counter() if sink is not None else 0.0
            n, transfers = _plane.run_tile(
                self.plane, tiled, self.app, self.kernel, tile, self.place_id
            )
            # a place executes only tiles it owns: every transfer is a
            # halo read from one remote producer
            for _src, _dst, nbytes in transfers:
                self._record_remote(nbytes)
            total += n
            if sink is not None and n:
                r0, c0 = tiled.grid.origin(*tile)
                sink.append(
                    (r0, c0, self.place_id, t0, time.perf_counter(), n, tile)
                )
        return total


class _WorkerInstruments:
    """One run's worth of worker-side accounting.

    Rebuilt on every ``init`` (and ``reset``): a pooled worker serves
    many runs back to back, and each run's master merges the ``stats``
    snapshot into its own registry — carrying counters across runs would
    double-count every earlier job into every later snapshot.
    """

    def __init__(self, place_id: int) -> None:
        self.registry = MetricsRegistry()
        self.compute_seconds = self.registry.counter(
            "dpx10_mp_worker_compute_seconds_total",
            "seconds spent in the compute loop, per place process",
            ("place",),
        ).labels(place_id)
        self.cells_computed = self.registry.counter(
            "dpx10_mp_worker_cells_total",
            "cells computed per place process",
            ("place",),
        ).labels(place_id)
        self.levels_served = self.registry.counter(
            "dpx10_mp_worker_levels_total",
            "level batches served per place process",
            ("place",),
        ).labels(place_id)
        self.dedup_hits = self.registry.counter(
            "dpx10_mp_worker_dedup_total",
            "duplicate requests answered from the reply cache, per place",
            ("place",),
        ).labels(place_id)


def _worker_main(place_id: int, conn) -> None:
    """The place process: owns values for its coords, serves the master.

    Every incoming message is ``(seq, kind, *payload)``; every reply is
    ``(seq, *body)``. Replies for the last :data:`_REPLY_CACHE` sequence
    numbers are cached so a retried or duplicated request is answered
    idempotently — in particular a duplicated ``compute`` never runs the
    user's kernel twice. ``cells``/``tiles`` (the shm data plane) get the
    same guarantee: a duplicated request is answered from the cache, and
    since a unit's recompute is deterministic even a lost-reply rerun
    would write identical bytes.

    **Pooled reuse.** A worker forked by :class:`repro.serve.pool.
    PlacePool` outlives any single run: ``init`` may carry a sixth
    element, the *logical* place id this worker plays for the leasing
    run (the forked ``place_id`` is just a pool serial). Each ``init``
    clears run state — values, shm attachments, instruments — so runs
    are independent; ``reset`` does the same without starting a new run
    (the pool sends it on release so idle workers hold no job data).

    **Trace context.** ``init`` may carry a seventh element, a trace
    context dict ``{"trace_id", "epoch0"}``. When present the worker
    buffers per-unit compute events with raw ``perf_counter`` stamps and
    computes its master-clock offset from ``epoch0`` (the master's wall
    clock at its trace's t=0 — valid because mp places share a host);
    the ``trace`` request ships ``(offset, events)`` back for the master
    to normalize onto its own timeline at merge time.
    """
    app: Optional[DPX10App] = None
    dag: Optional[Dag] = None
    values: Dict[Coord, Any] = {}
    shm_worker: Optional[_ShmWorker] = None
    replied: Dict[int, tuple] = {}
    ins = _WorkerInstruments(place_id)
    trace_buf: Optional[List[tuple]] = None
    trace_offset = 0.0

    def _clear_run_state() -> None:
        nonlocal values, shm_worker, ins, trace_buf, trace_offset
        values = {}
        if shm_worker is not None:
            from repro.core import shm

            shm.detach_all()
            shm_worker = None
        ins = _WorkerInstruments(place_id)
        trace_buf = None
        trace_offset = 0.0

    try:
        while True:
            msg = conn.recv()
            seq, kind = msg[0], msg[1]
            cached = replied.get(seq)
            if cached is not None:
                # a duplicate delivery (chaos dup, or a master retry whose
                # original did arrive): resend the cached reply verbatim
                ins.dedup_hits.inc()
                conn.send(cached)
                if kind == "stop":
                    return
                continue
            if kind == "init":
                _, _, app, dag, meta = msg[:5]
                if len(msg) > 5 and msg[5] is not None:
                    place_id = msg[5]
                _clear_run_state()
                if len(msg) > 6 and msg[6] is not None:
                    # trace context: buffer events, and anchor this
                    # process's perf_counter to the master trace timeline
                    # through the shared wall clock (same host)
                    trace_buf = []
                    trace_offset = (
                        time.time() - msg[6]["epoch0"]
                    ) - time.perf_counter()
                shm_worker = (
                    _ShmWorker(place_id, app, dag, meta, ins.registry)
                    if meta is not None
                    else None
                )
                reply = (seq, "ok")
            elif kind == "reset":
                app = dag = None
                _clear_run_state()
                reply = (seq, "ok")
            elif kind == "cells":
                _, _, cells = msg
                assert shm_worker is not None
                t0 = time.perf_counter()
                ncomp = shm_worker.compute_cells(cells, sink=trace_buf)
                elapsed = time.perf_counter() - t0
                ins.compute_seconds.inc(elapsed)
                ins.cells_computed.inc(ncomp)
                ins.levels_served.inc()
                reply = (seq, "done", ncomp, elapsed)
            elif kind == "tiles":
                _, _, tile_list = msg
                assert shm_worker is not None
                t0 = time.perf_counter()
                ncomp = shm_worker.compute_tiles(tile_list, sink=trace_buf)
                elapsed = time.perf_counter() - t0
                ins.compute_seconds.inc(elapsed)
                ins.cells_computed.inc(ncomp)
                ins.levels_served.inc()
                reply = (seq, "done", ncomp, elapsed)
            elif kind == "redist":
                # recovery re-homed the units: track ownership so the
                # halo accounting stays truthful
                assert shm_worker is not None
                shm_worker.plane.owners = msg[2]
                reply = (seq, "ok")
            elif kind == "compute":
                # compute the given cells; boundary holds remote dep values
                _, _, cells, boundary = msg
                assert app is not None and dag is not None
                t0 = time.perf_counter()
                for i, j in cells:
                    tc0 = time.perf_counter() if trace_buf is not None else 0.0
                    deps = [
                        d
                        for d in dag.get_dependency(i, j)
                        if dag.is_active(d.i, d.j)
                    ]
                    verts = []
                    for d in deps:
                        key = (d.i, d.j)
                        value = values.get(key, boundary.get(key))
                        verts.append(Vertex(d.i, d.j, value))
                    values[(i, j)] = app.compute(i, j, verts)
                    if trace_buf is not None:
                        trace_buf.append(
                            (i, j, place_id, tc0, time.perf_counter(), 1, None)
                        )
                elapsed = time.perf_counter() - t0
                ins.compute_seconds.inc(elapsed)
                ins.cells_computed.inc(len(cells))
                ins.levels_served.inc()
                reply = (seq, "done", len(cells), elapsed)
            elif kind == "fetch":
                _, _, coords = msg
                reply = (seq, "values", {c: values[c] for c in coords})
            elif kind == "collect":
                reply = (seq, "values", dict(values))
            elif kind == "stats":
                reply = (seq, "stats", ins.registry.collect())
            elif kind == "trace":
                # ship the buffered events with the clock offset; the
                # master adds the offset to every stamp at merge time
                reply = (seq, "trace", trace_offset, trace_buf or [])
                trace_buf = [] if trace_buf is not None else None
            elif kind == "stop":
                conn.send((seq, "bye"))
                return
            else:  # pragma: no cover - protocol guard
                conn.send((seq, "error", f"unknown message {kind!r}"))
                return
            replied[seq] = reply
            if len(replied) > _REPLY_CACHE:
                del replied[min(replied)]
            conn.send(reply)
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown races
        return
    finally:
        if shm_worker is not None:
            from repro.core import shm

            shm.detach_all()


class _PlaceProc:
    """Master-side handle for one place process.

    Owns the per-pipe sequence counter and the retry-with-backoff reply
    loop. With ``message=None`` (no chaos) the pipe is raw and
    :meth:`recv_reply` blocks exactly like a plain ``recv``; with a
    :class:`~repro.chaos.schedule.MessageChaos` the connection is wrapped
    in a :class:`~repro.chaos.network.ChaosPipe` and the timeout/retry
    budget from the chaos block is enforced per message.
    """

    def __init__(
        self,
        place_id: int,
        ctx,
        *,
        message=None,
        chaos_seed: int = 0,
        record_event: Optional[Callable[[str], None]] = None,
        on_retry: Optional[Callable[[], None]] = None,
    ) -> None:
        self.place_id = place_id
        self.raw, child = ctx.Pipe()
        if message is not None:
            from repro.chaos.network import DROPPED, ChaosPipe

            self.conn = ChaosPipe(
                self.raw,
                message,
                seed=chaos_seed * 1_000_003 + place_id,
                record_event=record_event,
            )
            self._dropped: object = DROPPED
            self.timeout_s: Optional[float] = message.timeout_s
            self.max_retries = message.max_retries
            self.backoff_s = message.backoff_s
        else:
            self.conn = self.raw
            self._dropped = object()  # never matches a real reply
            self.timeout_s = None
            self.max_retries = 1
            self.backoff_s = 0.0
        self._on_retry = on_retry or (lambda: None)
        self._seq = 0
        self._pending: Optional[tuple] = None
        self.proc = ctx.Process(
            target=_worker_main, args=(place_id, child), daemon=True
        )
        self.proc.start()
        child.close()
        self.alive = True

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def bind_run(self, on_retry: Optional[Callable[[], None]] = None) -> None:
        """Repoint the retry callback at the run now leasing this handle.

        Pooled handles outlive any single run; the sequence counter and
        reply cache deliberately persist (they are per-pipe, not
        per-run), only the accounting callback changes hands.
        """
        self._on_retry = on_retry or (lambda: None)

    def _died(self, exc: BaseException) -> None:
        self.alive = False
        raise DPX10Error(f"place {self.place_id} process died") from exc

    # -- the hardened request/reply protocol -----------------------------------
    def send_request(self, body: tuple) -> None:
        """Send one sequence-numbered request (reply via recv_reply)."""
        msg = (self._next_seq(),) + body
        self._pending = msg
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            self._died(exc)

    def recv_reply(self) -> tuple:
        """Await the reply to the last request; retry with backoff.

        Replies carrying a stale sequence number (late duplicates of an
        earlier exchange) are discarded. A chaos-dropped reply surfaces
        as the DROPPED sentinel and is treated as silence, feeding the
        timeout path. After ``max_retries`` timed-out attempts the place
        is declared dead.
        """
        assert self._pending is not None, "recv_reply without send_request"
        seq = self._pending[0]
        attempts = 0
        while True:
            if self.timeout_s is None:
                # chaos-free: block forever, as a plain pipe recv would
                try:
                    reply = self.conn.recv()
                except (EOFError, OSError) as exc:
                    self._died(exc)
                if reply is self._dropped or reply[0] != seq:
                    continue
                self._pending = None
                return tuple(reply[1:])
            deadline = time.monotonic() + self.timeout_s
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    if not self.conn.poll(remaining):
                        break
                    reply = self.conn.recv()
                except (EOFError, OSError) as exc:
                    self._died(exc)
                if reply is self._dropped or reply[0] != seq:
                    continue  # lost on the wire / stale duplicate
                self._pending = None
                return tuple(reply[1:])
            attempts += 1
            if attempts >= self.max_retries or not self.proc.is_alive():
                self._died(
                    TimeoutError(
                        f"no reply from place {self.place_id} after "
                        f"{attempts} attempts"
                    )
                )
            # resend the SAME envelope: the worker's reply cache makes
            # the retry idempotent whichever side lost the message
            self._on_retry()
            time.sleep(self.backoff_s * (2 ** (attempts - 1)))
            try:
                self.conn.send(self._pending)
            except (BrokenPipeError, OSError) as exc:
                self._died(exc)

    def request(self, body: tuple) -> tuple:
        """Send and await a reply; raises DPX10Error if the place died."""
        self.send_request(body)
        return self.recv_reply()

    # -- lifecycle ---------------------------------------------------------------
    def kill(self) -> None:
        if self.proc.pid is not None:
            os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.join(timeout=_JOIN_TIMEOUT_S)
        self.alive = False

    def stop(self) -> None:
        if not self.alive:
            return
        try:
            # teardown bypasses the chaos wrapper: stop must not be
            # dropped, and stale duplicate replies are drained here
            seq = self._next_seq()
            self.raw.send((seq, "stop"))
            while True:
                reply = self.raw.recv()
                if reply[0] == seq:
                    break
        except (BrokenPipeError, EOFError, OSError):
            pass
        self.proc.join(timeout=_JOIN_TIMEOUT_S)
        self.alive = False


def _acquire_procs(
    config: DPX10Config,
    ctx,
    *,
    message=None,
    chaos_seed: int = 0,
    record_event: Optional[Callable[[str], None]] = None,
    on_retry: Optional[Callable[[], None]] = None,
):
    """Place processes for one run: pool-leased (warm) or freshly forked.

    Returns ``(procs, pool)`` where ``procs`` maps logical place id →
    handle and ``pool`` is the :class:`repro.serve.pool.PlacePool` the
    handles must be released to, or ``None`` when the run owns them.
    Runs under *message* chaos always fork their own processes — the
    ChaosPipe wrapper is installed at fork time, so a pre-forked worker
    cannot serve them. Leased handles are keyed ``0..n-1`` like fresh
    ones; the init envelope's trailing place-id field relabels each
    worker to the logical place it plays for this run.
    """
    pool = config.place_pool
    if pool is not None and message is None:
        procs = pool.lease(config.nplaces)
        for proc in procs.values():
            proc.bind_run(on_retry)
        return procs, pool
    procs = {
        p: _PlaceProc(
            p,
            ctx,
            message=message,
            chaos_seed=chaos_seed,
            record_event=record_event,
            on_retry=on_retry,
        )
        for p in range(config.nplaces)
    }
    return procs, None


def _release_procs(procs: Dict[int, "_PlaceProc"], pool) -> None:
    """Return leased processes to their pool, or stop owned ones."""
    if pool is not None:
        pool.release(list(procs.values()))
    else:
        for proc in procs.values():
            proc.stop()


def _tphase(trace: Optional[ExecutionTrace], name: str, category: str = "phase"):
    """A master-side trace span, or a no-op when the run is untraced."""
    return trace.phase(name, category) if trace is not None else nullcontext()


def _trace_ctx(trace: Optional[ExecutionTrace]) -> Optional[Dict[str, Any]]:
    """The context dict the init envelope propagates to worker processes."""
    if trace is None:
        return None
    return {"trace_id": trace.trace_id, "epoch0": trace.epoch0}


def _merge_worker_trace(trace: ExecutionTrace, proc: "_PlaceProc") -> None:
    """Pull one worker's buffered events, normalized onto the master clock.

    The worker measured against its own ``perf_counter`` base; the init
    envelope's ``epoch0`` let it compute the master-timeline offset, so
    here each stamp just shifts by that offset (the satellite fix for
    cross-process span timestamps).
    """
    reply = proc.request(("trace",))
    if not reply or reply[0] != "trace":
        return
    offset = reply[1]
    for i, j, home, t0, t1, ncells, tile in reply[2]:
        trace.record(
            TraceEvent(
                i, j, home, home, t0 + offset, t1 + offset,
                tile=tuple(tile) if tile is not None else None,
                cells=ncells,
            )
        )


def _topological_levels(dag: Dag) -> List[List[Coord]]:
    """Group active cells by topological depth (Kahn by generations)."""
    active = [(i, j) for i, j in dag.region if dag.is_active(i, j)]
    active_set = set(active)
    indeg: Dict[Coord, int] = {}
    for i, j in active:
        indeg[(i, j)] = sum(
            1 for d in dag.get_dependency(i, j) if (d.i, d.j) in active_set
        )
    frontier = [c for c in active if indeg[c] == 0]
    levels: List[List[Coord]] = []
    done = 0
    while frontier:
        levels.append(frontier)
        done += len(frontier)
        nxt: List[Coord] = []
        for i, j in frontier:
            for a in dag.get_anti_dependency(i, j):
                key = (a.i, a.j)
                if key in indeg:
                    indeg[key] -= 1
                    if indeg[key] == 0:
                        nxt.append(key)
        frontier = nxt
    if done != len(active):
        raise DPX10Error(
            f"only {done} of {len(active)} vertices reachable: cyclic pattern"
        )
    return levels


def _publish_master_metrics(registry: MetricsRegistry, stats: MPRunStats) -> None:
    """Record the master-side accounting as named instruments."""
    registry.counter(
        "dpx10_net_messages_total", "cross-place messages relayed by the master"
    ).set(stats.network_messages)
    registry.counter(
        "dpx10_net_bytes_total", "cross-place bytes relayed by the master"
    ).set(stats.network_bytes)
    registry.counter(
        "dpx10_msg_retries_total",
        "message retransmissions (timeouts / modelled drops)",
    ).set(stats.msg_retries)
    registry.counter(
        "dpx10_completions_total", "vertex completions (monotone across recoveries)"
    ).set(stats.completions)
    executed = registry.counter(
        "dpx10_vertices_computed_total",
        "vertices computed per place",
        ("place",),
    )
    for p, n in sorted(stats.per_place_executed.items()):
        executed.labels(p).set(n)
    registry.gauge(
        "dpx10_places_alive", "place processes alive at run end"
    ).set(stats.final_alive_places)
    registry.counter(
        "dpx10_mp_levels_total", "bulk-synchronous levels driven by the master"
    ).set(stats.levels)
    registry.counter(
        "dpx10_recoveries_total",
        "fault recoveries performed",
        ("mechanism",),
    ).labels("recovery").set(stats.recoveries)


def _shm_eligible(app: DPX10App, config: DPX10Config, chaos) -> bool:
    """Whether this run may use the shared-memory data plane.

    Opt-out (``shm=False``) wins; otherwise the plane needs a numeric
    dtype (object values cannot live in a flat segment), no disk
    spilling, no *message* chaos (ChaosPipe perturbs pipe payloads — the
    data must stay on the pipes for those semantics to mean anything),
    and a platform where segments actually work.
    """
    if config.shm is False:
        return False
    if app.value_dtype is None:
        return False
    if config.spill_dir is not None:
        return False
    if chaos is not None and chaos.message is not None:
        return False
    from repro.core.shm import shm_supported

    return shm_supported()


def run_mp(
    app: DPX10App,
    dag: Dag,
    config: DPX10Config,
    fault_plans: Sequence[FaultPlan] = (),
    registry: MetricsRegistry = NULL_REGISTRY,
    chaos=None,
    trace: Optional[ExecutionTrace] = None,
    straggler=None,
) -> Tuple[Mapping, MPRunStats]:
    """Execute the application on real place processes.

    Returns the complete ``{coord: value}`` result mapping plus run
    stats — a plain dict from the pickled transport, a
    :class:`~repro.core.plane.PlaneResults` from the shared-memory one.
    Each place process keeps its own metrics registry; at gather time
    the master requests a snapshot over the reply channel and merges it
    into ``registry`` (counters add, histograms add bucket-wise), so
    per-process accounting survives the address-space boundary.

    ``chaos`` is an optional :class:`~repro.chaos.controller.
    ChaosController`: its kill plans merge into the fault injector, its
    recovery-kill triggers are polled between recovery redo batches, its
    throttles slow a place's level batches, and its message block wraps
    every master-side pipe in a :class:`~repro.chaos.network.ChaosPipe`
    (which is also what forces such runs onto the pickled transport).

    ``trace`` (config.trace) collects master-side phase spans plus the
    worker-side per-unit events shipped back over the ``trace`` request,
    normalized onto the master timeline. ``straggler`` is an optional
    :class:`repro.obs.causal.StragglerDetector` fed each place's level
    service time (worker-measured elapsed plus master-side chaos
    throttle sleep, which the worker cannot see).
    """
    if _shm_eligible(app, config, chaos):
        return _run_mp_shm(
            app, dag, config, fault_plans, registry, chaos,
            trace=trace, straggler=straggler,
        )
    return _run_mp_pipes(
        app, dag, config, fault_plans, registry, chaos,
        trace=trace, straggler=straggler,
    )


def _run_mp_pipes(
    app: DPX10App,
    dag: Dag,
    config: DPX10Config,
    fault_plans: Sequence[FaultPlan] = (),
    registry: MetricsRegistry = NULL_REGISTRY,
    chaos=None,
    trace: Optional[ExecutionTrace] = None,
    straggler=None,
) -> Tuple[Dict[Coord, Any], MPRunStats]:
    """The pickled pipe transport: values travel as pipe payloads."""
    ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
    stats = MPRunStats()
    tiled = dag.coarsen(*config.tile_shape) if config.tiling_enabled else None
    # worker events on this transport are per-cell even when tiled, so
    # the causal layer links them by the cell-level offsets
    if trace is not None:
        trace.set_dependency_meta(dag)
    with _tphase(trace, "schedule"):
        if tiled is None:
            levels = _topological_levels(dag)
        else:
            # tile-granular: level-synchronize over the coarsened DAG, then
            # expand each tile to its cells in intra-tile wavefront order.
            # Tiles sharing a level have no tile edge, so every cross-tile
            # dependency resolves in an earlier level; in-tile dependencies
            # resolve because the worker computes cells in message order
            levels = []
            for tile_level in _topological_levels(tiled):
                cells: List[Coord] = []
                for t in tile_level:
                    rows, cols = tiled.cells_of(*t)
                    cells.extend(zip(rows.tolist(), cols.tolist()))
                levels.append(cells)
    stats.levels = len(levels)
    total_active = sum(len(lv) for lv in levels)
    all_plans = list(fault_plans)
    if chaos is not None:
        all_plans += chaos.fault_plans()
    injector = FaultInjector(all_plans, total_active) if all_plans else None

    message = chaos.message if chaos is not None else None
    record_event = chaos.record if chaos is not None else None

    def on_retry() -> None:
        stats.msg_retries += 1

    with _tphase(trace, "lease places"):
        procs, pool = _acquire_procs(
            config,
            ctx,
            message=message,
            chaos_seed=chaos.schedule.seed if chaos is not None else 0,
            record_event=record_event,
            on_retry=on_retry,
        )
    stats.warm_start = pool is not None
    trace_ctx = _trace_ctx(trace)
    try:
        alive = sorted(procs)

        def home_of(c: Coord, d) -> int:
            # tiled runs own cells at tile granularity (the tile origin's
            # place), so a tile is never split across processes and its
            # intra-tile dependencies stay process-local
            if tiled is None:
                return d.place_of(*c)
            return d.place_of(*tiled.grid.origin(*tiled.grid.tile_of(*c)))

        owner: Dict[Coord, int] = {}
        with _tphase(trace, "partition"):
            dist = config.make_dist(dag.region, alive)
            for i, j in dag.region:
                if dag.is_active(i, j):
                    owner[(i, j)] = home_of((i, j), dist)
        for p in alive:
            procs[p].request(("init", app, dag, None, p, trace_ctx))
        halo_hist = (
            registry.histogram(
                "dpx10_halo_fetch_bytes",
                "bytes moved per batched halo fetch",
                ("transport",),
                buckets=DEFAULT_BYTES_BUCKETS,
            ).labels("pipe")
            if registry.enabled
            else None
        )

        #: topological depth of every active cell — recovery keys its
        #: redo batches on this so dependencies always recompute first
        depth_of: Dict[Coord, int] = {
            c: d for d, lv in enumerate(levels) for c in lv
        }
        #: every cell whose value currently lives on an alive place
        computed: Set[Coord] = set()

        def compute_level(cells: List[Coord]) -> None:
            """One bulk-synchronous step over the alive places."""
            if config.pace is not None:
                # serving-layer fairness gate: may block until the
                # weighted-fair scheduler grants this batch its turn
                t_pace0 = trace.now() if trace is not None else 0.0
                config.pace(len(cells))
                if trace is not None:
                    t_pace1 = trace.now()
                    if t_pace1 - t_pace0 > 1e-6:
                        trace.record_span(
                            Span("pace wait", t_pace0, t_pace1, "pace")
                        )
            by_place: Dict[int, List[Coord]] = defaultdict(list)
            for c in cells:
                by_place[owner[c]].append(c)
            # boundary values: remote deps of each place's cells
            needs: Dict[int, Dict[int, Set[Coord]]] = defaultdict(
                lambda: defaultdict(set)
            )  # consumer place -> producer place -> coords
            for p, own_cells in by_place.items():
                for i, j in own_cells:
                    for d in dag.get_dependency(i, j):
                        key = (d.i, d.j)
                        if key in owner and owner[key] != p:
                            needs[p][owner[key]].add(key)
            boundary: Dict[int, Dict[Coord, Any]] = defaultdict(dict)
            for consumer, per_producer in needs.items():
                for producer, coords in per_producer.items():
                    t_fetch0 = trace.now() if trace is not None else 0.0
                    reply = procs[producer].request(("fetch", sorted(coords)))
                    fetched = reply[1]
                    boundary[consumer].update(fetched)
                    if trace is not None:
                        trace.record_span(
                            Span(
                                "halo fetch", t_fetch0, trace.now(),
                                "halo", consumer,
                            )
                        )
                    nbytes = len(
                        pickle.dumps(fetched, protocol=pickle.HIGHEST_PROTOCOL)
                    )
                    stats.network_bytes += nbytes
                    stats.network_messages += 1
                    if halo_hist is not None:
                        # actual pickled payload size (satellite: the halo
                        # byte accounting is real on every transport)
                        halo_hist.observe(nbytes)
            throttled: Dict[int, float] = {}
            if chaos is not None and chaos.has_throttles:
                for p in by_place:
                    throttled[p] = chaos.throttle_batch(p, len(by_place[p]))
            for p, own_cells in by_place.items():
                procs[p].send_request(
                    ("compute", own_cells, boundary.get(p, {}))
                )
            for p in by_place:
                reply = procs[p].recv_reply()
                assert reply[0] == "done"
                stats.per_place_executed[p] = (
                    stats.per_place_executed.get(p, 0) + reply[1]
                )
                if straggler is not None and len(reply) > 2:
                    # attribute the master-side throttle sleep to the
                    # place: the worker's own timer cannot see it
                    straggler.observe(
                        p,
                        reply[2] + throttled.get(p, 0.0),
                        len(by_place[p]),
                    )
            stats.completions += len(cells)
            computed.update(cells)

        def handle_victims(
            victims: Sequence[int], pending: Dict[int, Set[Coord]]
        ) -> None:
            """Kill the victims, re-home their cells, queue lost work.

            ``pending`` maps topological depth to the set of finished
            cells that must recompute; the drain loop below consumes it
            in ascending depth order so dependencies always exist before
            their consumers ask for them.

            With a place pool, each corpse is first swapped for a pooled
            spare initialized as the same logical place: ownership is
            unchanged and only the dead place's finished cells recompute.
            Places the pool cannot replace fall back to re-homing on the
            survivors — including the fatal place-0 case.
            """
            if pool is None and (0 in victims or not procs[0].alive):
                raise PlaceZeroDeadError()
            for v in set(victims):
                if procs[v].alive:
                    logger.warning("SIGKILL place %d process", v)
                    procs[v].kill()
            dead = {p for p in procs if not procs[p].alive}
            replaced: Set[int] = set()
            if pool is not None:
                for p in sorted(dead):
                    spare = pool.take_spare(procs[p])
                    if spare is None:
                        break
                    spare.bind_run(on_retry)
                    spare.request(("init", app, dag, None, p, trace_ctx))
                    procs[p] = spare
                    replaced.add(p)
                    stats.pool_restarts += 1
                    logger.warning("place %d restarted from pool", p)
            unreplaced = dead - replaced
            if 0 in unreplaced or not procs[0].alive:
                raise PlaceZeroDeadError()
            survivors = [p for p in sorted(procs) if procs[p].alive]
            if not survivors:
                raise AllPlacesDeadError("every place process died")
            new_dist = (
                config.make_dist(dag.region, survivors) if unreplaced else None
            )
            for c, p in owner.items():
                if p in unreplaced:
                    owner[c] = home_of(c, new_dist)
                if p in dead and c in computed:
                    computed.discard(c)
                    pending.setdefault(depth_of[c], set()).add(c)

        def poll_faults() -> List[int]:
            """Injector kills due at the current completion count."""
            if injector is None:
                return []
            victims = injector.poll_completions(stats.completions)
            if victims and chaos is not None:
                chaos.record("kill", len(victims))
            return victims

        def recover(first_victims: List[int]) -> None:
            """Section VI-D against real corpses, chaos-aware.

            Drains the lost finished cells in topological-depth order,
            polling the injector and the chaos controller's mid-recovery
            kill triggers between batches: a place dying *while this
            recovery is in flight* simply folds its lost cells into the
            same drain, which terminates because the alive set strictly
            shrinks (ending, at worst, in PlaceZeroDeadError or
            AllPlacesDeadError — never a hang).
            """
            stats.recoveries += 1
            if chaos is not None:
                chaos.begin_recovery_pass()
            with _tphase(trace, "recovery", "recovery"):
                pending: Dict[int, Set[Coord]] = {}
                handle_victims(first_victims, pending)
                progress = 0
                while pending:
                    d = min(pending)
                    # level order, not coordinate order: a tiled level
                    # lists each tile's cells in intra-tile wavefront
                    # order, which the worker's in-message dependencies
                    # rely on (row-major breaks interval-like patterns)
                    lost = pending.pop(d)
                    batch = [c for c in levels[d] if c in lost]
                    compute_level(batch)
                    progress += len(batch)
                    more: List[int] = []
                    if chaos is not None:
                        more += chaos.poll_recovery(progress)
                    more += poll_faults()
                    if more:
                        handle_victims(more, pending)

        with _tphase(trace, "execute"):
            level_idx = 0
            while level_idx < len(levels):
                compute_level(levels[level_idx])
                level_idx += 1
                victims = poll_faults()
                if victims:
                    recover(victims)

        # gather everything for result binding, plus each surviving
        # worker's metrics snapshot (the cross-process metric merge)
        # and its normalized trace buffer
        results: Dict[Coord, Any] = {}
        with _tphase(trace, "collect"):
            for p in sorted(procs):
                if procs[p].alive:
                    reply = procs[p].request(("collect",))
                    results.update(reply[1])
                    if trace is not None:
                        _merge_worker_trace(trace, procs[p])
                    snapshot = procs[p].request(("stats",))[1]
                    registry.merge(snapshot)
                    for label_values, seconds in snapshot.get(
                        "dpx10_mp_worker_compute_seconds_total", {}
                    ).get("values", []):
                        stats.worker_compute_seconds[int(label_values[0])] = seconds
        missing = [c for c in owner if c not in results]
        if missing:
            # name the first few stragglers in domain terms ("node 7" on a
            # tree domain) — raw layout coords are meaningless to the user
            shown = ", ".join(dag.describe_cell(*c) for c in sorted(missing)[:5])
            raise DPX10Error(
                f"{len(missing)} vertices missing after run "
                f"(first: {shown})"
            )
        stats.final_alive_places = sum(1 for pr in procs.values() if pr.alive)
        if registry.enabled:
            _publish_master_metrics(registry, stats)
        return results, stats
    finally:
        _release_procs(procs, pool)


def _run_mp_shm(
    app: DPX10App,
    dag: Dag,
    config: DPX10Config,
    fault_plans: Sequence[FaultPlan] = (),
    registry: MetricsRegistry = NULL_REGISTRY,
    chaos=None,
    trace: Optional[ExecutionTrace] = None,
    straggler=None,
) -> Tuple[_plane.PlaneResults, MPRunStats]:
    """The zero-copy transport: values live in shared-memory planes.

    The master creates a matrix-shaped value plane (the app's dtype) and
    a uint8 finished plane before spawning the place processes; workers
    attach both and compute in place. The pipes carry only *unit index
    lists* — whole tiles when the run is tiled, cells otherwise — so the
    per-level payload is O(units), not O(values). Level-synchronous
    execution makes the lock-free cross-process reads safe: a unit's
    dependencies always finished in an earlier level (or earlier in the
    same process's batch), and kills only fire between levels at the
    master's poll points, so no consumer can observe a torn write.

    Recovery: a dead place's computed units have their plane regions
    zeroed (restoring the "never written reads as zero" invariant for
    kernel windows) and are recomputed in topological-depth order by the
    survivors, who receive the re-homed distribution via ``redist``.
    """
    from repro.core.shm import ShmArena

    ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
    stats = MPRunStats()
    tiled = dag.coarsen(*config.tile_shape) if config.tiling_enabled else None
    if trace is not None:
        trace.set_dependency_meta(dag, tiled)
    with _tphase(trace, "schedule"):
        unit_levels = _topological_levels(tiled if tiled is not None else dag)
    stats.levels = len(unit_levels)
    if tiled is not None:
        kind_msg = "tiles"
        # exact per-tile active-cell counts: completions must count cells
        # (fault injection thresholds and progress are cell-granular)
        ncells_of: Dict[Coord, int] = {
            u: int(len(tiled.cells_of(*u)[0]))
            for lv in unit_levels
            for u in lv
        }
    else:
        kind_msg = "cells"
        ncells_of = {u: 1 for lv in unit_levels for u in lv}
    total_active = sum(ncells_of.values())
    all_plans = list(fault_plans)
    if chaos is not None:
        all_plans += chaos.fault_plans()
    injector = FaultInjector(all_plans, total_active) if all_plans else None
    record_event = chaos.record if chaos is not None else None

    def on_retry() -> None:
        stats.msg_retries += 1

    dt = np.dtype(app.value_dtype)
    pool = config.place_pool
    # pooled segment leases duck-type ShmArena (create/bytes_mapped/
    # close); close() returns the segments to the pool's free list
    # instead of unlinking, so the next job re-leases the same mappings
    arena = pool.segment_lease() if pool is not None else ShmArena()
    try:
        values, values_name = arena.create((dag.height, dag.width), dt, "values")
        finished, finished_name = arena.create(
            (dag.height, dag.width), np.uint8, "finished"
        )
        shm_gauge = (
            registry.gauge(
                "dpx10_shm_bytes_mapped",
                "bytes of shared-memory plane segments currently mapped",
            )
            if registry.enabled
            else None
        )
        if shm_gauge is not None:
            shm_gauge.set(arena.bytes_mapped)
        # fresh forks happen after the planes exist; pooled workers were
        # forked long before, which is fine — they attach the segments
        # by name at init time, not by fork inheritance. Message chaos
        # is excluded by shm eligibility, so the pipes here are always
        # raw and the pool is always usable when configured
        with _tphase(trace, "lease places"):
            procs, lease_pool = _acquire_procs(
                config, ctx, record_event=record_event, on_retry=on_retry
            )
        stats.warm_start = lease_pool is not None
        trace_ctx = _trace_ctx(trace)
        try:
            alive = sorted(procs)

            with _tphase(trace, "partition"):
                # the master's handle on the plane the workers attach:
                # it owns the unit-granular owner map (shipped resolved —
                # Dist objects hold closures and cannot cross the pipe)
                # and zeroes lost regions on recovery
                plane = _plane.TilePlane(
                    values,
                    finished,
                    tuple(config.tile_shape) if tiled is not None else (1, 1),
                )
                plane.home(
                    config.make_dist(dag.region, alive),
                    (u for lv in unit_levels for u in lv),
                )

            autokernel_spec = None
            if (
                config.autokernel
                and tiled is not None
                and app.value_dtype is not None
                and not config.sanitize
            ):
                # classify + probe once here on the master; workers get
                # the picklable spec and re-emit without re-analysis
                from repro.analysis.codegen import build_autokernel

                master_kernel, _cls = build_autokernel(app, dag)
                if master_kernel is not None:
                    autokernel_spec = master_kernel.spec
            meta = {
                "values": values_name,
                "finished": finished_name,
                "shape": (dag.height, dag.width),
                "dtype": dt.str,
                "tile_shape": (
                    tuple(config.tile_shape) if tiled is not None else None
                ),
                "autokernel": autokernel_spec,
                "owners": plane.owners,
            }
            for p in alive:
                procs[p].request(("init", app, dag, meta, p, trace_ctx))

            depth_of: Dict[Coord, int] = {
                u: d for d, lv in enumerate(unit_levels) for u in lv
            }
            computed: Set[Coord] = set()

            def compute_level(units: List[Coord]) -> None:
                """One bulk-synchronous step: ship unit indices only."""
                if config.pace is not None:
                    # serving-layer fairness gate: may block until the
                    # weighted-fair scheduler grants this batch its turn
                    t_pace0 = trace.now() if trace is not None else 0.0
                    config.pace(sum(ncells_of[u] for u in units))
                    if trace is not None:
                        t_pace1 = trace.now()
                        if t_pace1 - t_pace0 > 1e-6:
                            trace.record_span(
                                Span("pace wait", t_pace0, t_pace1, "pace")
                            )
                by_place: Dict[int, List[Coord]] = defaultdict(list)
                for u in units:
                    by_place[int(plane.owners[u])].append(u)
                throttled: Dict[int, float] = {}
                if chaos is not None and chaos.has_throttles:
                    for p in by_place:
                        throttled[p] = chaos.throttle_batch(
                            p, sum(ncells_of[u] for u in by_place[p])
                        )
                for p, own in by_place.items():
                    procs[p].send_request((kind_msg, own))
                for p in by_place:
                    reply = procs[p].recv_reply()
                    assert reply[0] == "done"
                    stats.per_place_executed[p] = (
                        stats.per_place_executed.get(p, 0) + reply[1]
                    )
                    if straggler is not None and len(reply) > 2:
                        # fold in the master-side throttle sleep: the
                        # worker's own timer cannot see it
                        straggler.observe(
                            p,
                            reply[2] + throttled.get(p, 0.0),
                            sum(ncells_of[u] for u in by_place[p]),
                        )
                stats.completions += sum(ncells_of[u] for u in units)
                computed.update(units)

            def handle_victims(
                victims: Sequence[int], pending: Dict[int, Set[Coord]]
            ) -> None:
                if lease_pool is None and (
                    0 in victims or not procs[0].alive
                ):
                    raise PlaceZeroDeadError()
                for v in set(victims):
                    if procs[v].alive:
                        logger.warning("SIGKILL place %d process", v)
                        procs[v].kill()
                dead = {p for p in procs if not procs[p].alive}
                replaced: Set[int] = set()
                if lease_pool is not None:
                    # warm restart: swap each corpse for a pooled spare
                    # initialized as the same logical place (it attaches
                    # the live planes by name; meta carries the live owner map)
                    # — ownership is unchanged, only the dead place's
                    # finished units are zeroed and recomputed
                    for p in sorted(dead):
                        spare = lease_pool.take_spare(procs[p])
                        if spare is None:
                            break
                        spare.bind_run(on_retry)
                        spare.request(("init", app, dag, meta, p, trace_ctx))
                        procs[p] = spare
                        replaced.add(p)
                        stats.pool_restarts += 1
                        logger.warning("place %d restarted from pool", p)
                unreplaced = dead - replaced
                if 0 in unreplaced or not procs[0].alive:
                    raise PlaceZeroDeadError()
                survivors = [p for p in sorted(procs) if procs[p].alive]
                if not survivors:
                    raise AllPlacesDeadError("every place process died")
                new_dist = (
                    config.make_dist(dag.region, survivors) if unreplaced else None
                )
                for u in plane.lose(dead, new_dist, rehome=unreplaced):
                    if u in computed:
                        computed.discard(u)
                        pending.setdefault(depth_of[u], set()).add(u)
                if unreplaced:
                    # survivors track the re-homed ownership so their
                    # halo accounting (and nothing else) stays truthful;
                    # pool replacements got the current map at init
                    for p in survivors:
                        procs[p].request(("redist", plane.owners))

            def poll_faults() -> List[int]:
                if injector is None:
                    return []
                victims = injector.poll_completions(stats.completions)
                if victims and chaos is not None:
                    chaos.record("kill", len(victims))
                return victims

            def recover(first_victims: List[int]) -> None:
                stats.recoveries += 1
                if chaos is not None:
                    chaos.begin_recovery_pass()
                with _tphase(trace, "recovery", "recovery"):
                    pending: Dict[int, Set[Coord]] = {}
                    handle_victims(first_victims, pending)
                    progress = 0
                    while pending:
                        d = min(pending)
                        batch = sorted(pending.pop(d))
                        compute_level(batch)
                        progress += len(batch)
                        more: List[int] = []
                        if chaos is not None:
                            more += chaos.poll_recovery(progress)
                        more += poll_faults()
                        if more:
                            handle_victims(more, pending)

            with _tphase(trace, "execute"):
                level_idx = 0
                while level_idx < len(unit_levels):
                    compute_level(unit_levels[level_idx])
                    level_idx += 1
                    victims = poll_faults()
                    if victims:
                        recover(victims)

            # no collect round trip: the results already live in the
            # plane. Merge each survivor's metrics snapshot (and its
            # normalized trace buffer) and fold its shm read accounting
            # into the master's network stats (the snapshot is a plain
            # dict, so this works even with the NULL registry)
            for p in sorted(procs):
                if procs[p].alive:
                    if trace is not None:
                        _merge_worker_trace(trace, procs[p])
                    snapshot = procs[p].request(("stats",))[1]
                    registry.merge(snapshot)
                    for label_values, seconds in snapshot.get(
                        "dpx10_mp_worker_compute_seconds_total", {}
                    ).get("values", []):
                        stats.worker_compute_seconds[int(label_values[0])] = (
                            seconds
                        )
                    for _lv, nbytes in snapshot.get(
                        "dpx10_mp_shm_read_bytes_total", {}
                    ).get("values", []):
                        stats.network_bytes += int(nbytes)
                    for _lv, nbatches in snapshot.get(
                        "dpx10_mp_shm_read_batches_total", {}
                    ).get("values", []):
                        stats.network_messages += int(nbatches)
            done_cells = int(np.count_nonzero(finished))
            if done_cells != total_active:
                raise DPX10Error(
                    f"{total_active - done_cells} vertices missing after run"
                )
            stats.final_alive_places = sum(
                1 for pr in procs.values() if pr.alive
            )
            if shm_gauge is not None:
                shm_gauge.set(arena.bytes_mapped)
            if registry.enabled:
                _publish_master_metrics(registry, stats)
            # copy the planes out before the segments unlink
            return plane.results(copy=True), stats
        finally:
            _release_procs(procs, lease_pool)
    finally:
        arena.close()
