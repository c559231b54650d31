"""The multiprocessing engine: places as real OS processes.

X10 realizes places as processes; the ``inline``/``threaded`` engines fold
them into one Python process. This engine does it for real, with **one
master loop, two plane backings and one request kind**:

* every place is a ``multiprocessing.Process`` computing its partition
  of the DP matrix against a :class:`~repro.core.plane.TilePlane` — the
  dense layout the in-process engines use — through the same executor,
  :func:`repro.core.plane.run_tiles`, one call per round's batch of
  tiles (a run with no tile plan, ``tile_shape=(1, 1)`` included, is a grid
  of 1×1 tiles);
* :func:`run_mp` is the only master. It keeps a plane of its own and
  drives the places round by round with one request,
  ``("units", units, halo_patch)``, answered by
  ``("done", ncells, seconds, result_patch)``;
* the plane's **backing** is an allocator fact (:func:`_shm_eligible`),
  not a code path. Numeric-dtype apps get ``multiprocessing.
  shared_memory`` segments (lifecycle owned by :mod:`repro.core.shm`)
  that master and places all map: both patches are ``None`` and the
  pipes carry unit indices only. Object-valued apps, ``spill_dir`` runs,
  runs under *message* chaos and platforms without shm get a private
  heap/memmap plane per process instead, and the two patches carry what
  a shared mapping would have made visible — the request brings the
  batch's halo cells homed on *other* places, gathered off the master's
  plane; the reply brings the cells just computed, which the master
  writes into its plane. Nothing else differs: same kernels, same
  recovery, same results object, same owner-map network accounting;
* a fault is a genuine ``SIGKILL`` of a place process, detected by the
  master, and recovery is the paper's section VI-D protocol against a
  real process corpse: :meth:`TilePlane.lose` zeroes the dead place's
  tiles and re-homes them over the survivors (or a pooled spare takes
  the dead place's identity with an empty plane), the tile wavefront is
  rebuilt from the plane's flags, and the lost tiles recompute in the
  rounds that follow, before any consumer reads them.

Execution runs in **rounds** over the tile wavefront every engine steps,
a :class:`~repro.core.tiling.TileRunState`: each round ships every place
its ready tiles and waits for all of them; within a round the places
compute in parallel (true multi-core parallelism — no GIL across
processes). This is a bulk-synchronous rendering of the same DAG;
per-vertex scheduling strategies and the FIFO cache are inline/
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
:class:`~repro.chaos.network.ChaosPipe`) it is what keeps the run exact —
which is why such runs keep their values on the pipes, as patches.

A ``compute()`` that raises does not take its place down: the worker
replies ``error`` with the formatted traceback, stays alive (it may be a
pooled worker serving other jobs), and the master raises
:class:`~repro.errors.RemoteComputeError`.

Selected with ``DPX10Config(engine="mp")``. Because apps and DAGs cross
the pipe, both must be picklable — module-level classes, not closures or
test-local definitions.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
import multiprocessing as mp
from collections import defaultdict
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.apgas.failure import FaultInjector, FaultPlan
from repro.core import plane as _plane
from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.dag import Dag
from repro.core.tiling import TileRunState, plan_tiles
from repro.core.trace import ExecutionTrace, TraceEvent, paced, phase_span, split_span
from repro.errors import (
    DPX10Error,
    PlaceZeroDeadError,
    RemoteComputeError,
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
        #: rounds dispatched: the tile DAG's Kahn generations on a
        #: fault-free run, plus the recomputation a recovery adds
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
        #: the plan that ran (see RunReport.tile_shape / RunReport.kernel)
        self.tile_shape: Optional[Tuple[int, int]] = None
        self.kernel: Optional[str] = None


class _PlaceWorker:
    """Place-side view of the data plane.

    Holds this place's :class:`~repro.core.plane.TilePlane` — the shm
    segments the master created, attached by name, or (``meta`` carries
    no segment names) a private plane of the same layout — coarsens the
    DAG locally (tile geometry is deterministic, so shipping the tile
    shape is enough; a run with no tile plan ships ``(1, 1)``), and
    serves ``units`` requests by reading dependencies off the plane and
    writing results in place: every batch of tiles goes whole to
    :func:`repro.core.plane.run_tiles`, the executor the in-process
    engines run too. On the shared backing the
    only pipe traffic is the unit index lists and the tiny ``done``
    acknowledgements; on a private plane the request's halo patch is
    scattered in first and the reply carries the computed cells back.

    Accounting: reads of cells homed on *other* places are the halo
    traffic, by the owner map on either backing; they feed
    ``dpx10_mp_shm_read_{bytes,batches}_total`` (folded into the master's
    network stats at collect time) and the ``dpx10_halo_fetch_bytes``
    histogram under the ``shm`` / ``pipe`` transport label.
    """

    def __init__(
        self,
        place_id: int,
        app: DPX10App,
        dag: Dag,
        meta: Dict[str, Any],
        registry: MetricsRegistry,
    ) -> None:
        self.place_id = place_id
        self.app = app
        self.dag = dag
        shape = (dag.height, dag.width)
        self.tiled = dag.coarsen(*meta["tile_shape"])
        self.shared = "values" in meta
        if self.shared:
            from repro.core import shm

            self.plane = _plane.TilePlane(
                shm.attach_array(meta["values"], shape, app.value_dtype),
                shm.attach_array(meta["finished"], shape, np.uint8),
                self.tiled.grid,
            )
        else:
            self.plane = _plane.TilePlane.allocate(
                self.tiled.grid, app.value_dtype, meta["value_nbytes"], meta["spill_dir"]
            )
        #: the owner map is tile-granular (-1 = inactive); Dist objects
        #: hold closures and cannot cross the pipe, so the master ships
        #: the resolved array (and again on redist)
        self.plane.owners = meta["owners"]
        #: the master's kernel decision: ``None`` (the per-cell loop),
        #: ``"hand"`` or a generated kernel's spec. Generated kernels close
        #: over compiled code objects and cannot cross the pipe; each place
        #: re-emits from the spec — no AST pipeline, no numeric probes
        self.kernel = meta["kernel"]
        if self.kernel == "hand":
            self.kernel = _plane.HandKernel(app.compute_tile, self.tiled.pads)
        elif self.kernel is not None:
            from repro.analysis.codegen import kernel_from_spec

            self.kernel = kernel_from_spec(self.kernel, app, dag)
        self.sanitize = meta["sanitize"]
        # compute() reads other cells through the dag (the app and dag came
        # in one message, so the app's dag is this one): a live view of the
        # plane, as in process, so a sanitized read is checked here too
        _plane.bind_mapping(dag, self.plane.results())
        #: false when the run has no tile plan: its 1×1 tiles report as
        #: the vertices they are — cell trace events, and one halo read
        #: per producing place per request rather than per tile
        self.planned = meta["planned"]
        self.read_bytes = registry.counter(
            "dpx10_mp_shm_read_bytes_total",
            "bytes of remote-homed dependencies read off this place's "
            "plane (the halo traffic, on either backing)",
            ("place",),
        ).labels(place_id)
        self.read_batches = registry.counter(
            "dpx10_mp_shm_read_batches_total",
            "batched halo reads (one per producing place per unit batch)",
            ("place",),
        ).labels(place_id)
        self.halo_bytes = registry.histogram(
            "dpx10_halo_fetch_bytes",
            "bytes moved per batched halo fetch",
            ("transport",),
            buckets=DEFAULT_BYTES_BUCKETS,
        ).labels("shm" if self.shared else "pipe")

    def compute(
        self, units: Sequence[Coord], patch, sink: Optional[list] = None
    ) -> Tuple[int, Optional[tuple]]:
        """Serve one unit batch; returns ``(cells computed, result patch)``.

        ``patch`` and the result patch are ``(rows, cols, values)`` on a
        private plane and ``None`` on the shared one, where the mapping
        already shows every place's writes to everyone.
        """
        values = self.plane.values
        if patch is not None:
            rows, cols, halo = patch
            values[rows, cols] = halo
        ncomp = self.compute_tiles(units, sink)
        if self.shared:
            return ncomp, None
        # the patch is what this place's own finish flags say it wrote:
        # only units computed here are ever flagged on a private plane
        parts = []
        for u in units:
            r0, r1, c0, c1 = self.tiled.grid.bounds(*u)
            fr, fc = np.nonzero(self.plane.finished[r0:r1, c0:c1])
            parts.append((fr + r0, fc + c0))
        rows, cols = (np.concatenate(x) for x in zip(*parts))
        return ncomp, (rows, cols, values[rows, cols])

    def compute_tiles(
        self, tiles: Sequence[Coord], sink: Optional[list] = None
    ) -> int:
        """Compute a batch of tiles against the plane.

        The whole batch goes to :func:`repro.core.plane.run_tiles` in one
        call — a round's tiles are independent, so those that can share
        a kernel sweep do. With ``sink`` set each tile's event is its
        :func:`~repro.core.trace.split_span` share of the batch's span.
        """
        tiled, planned = self.tiled, self.planned
        places = [self.place_id] * len(tiles)
        t0 = time.perf_counter()
        done = _plane.run_tiles(
            self.plane, tiled, self.app, self.kernel, tiles, places,
            tiled.halos_of(tiles), self.sanitize,
        )
        cells = [n for n, _ in done]
        spans = split_span(t0, time.perf_counter(), cells)
        reads: Dict[Any, int] = defaultdict(int)
        for k, (tile, (n, transfers), span) in enumerate(zip(tiles, done, spans)):
            # a place executes only tiles it owns: every transfer is a
            # halo read from one remote producer
            for src, _dst, nbytes in transfers:
                reads[(k, src) if planned else src] += nbytes
            if sink is not None and n:
                r0, c0 = tiled.grid.origin(*tile)
                unit = tile if planned else None
                sink.append((r0, c0, self.place_id, *span, n, unit))
        for nbytes in reads.values():
            self.read_bytes.inc(nbytes)
            self.read_batches.inc()
            self.halo_bytes.observe(nbytes)
        return sum(cells)


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
            "round batches served per place process",
            ("place",),
        ).labels(place_id)
        self.dedup_hits = self.registry.counter(
            "dpx10_mp_worker_dedup_total",
            "duplicate requests answered from the reply cache, per place",
            ("place",),
        ).labels(place_id)


def _worker_main(place_id: int, conn) -> None:
    """The place process: holds its plane, serves the master.

    Every incoming message is ``(seq, kind, *payload)``; every reply is
    ``(seq, *body)``. The last :data:`_REPLY_CACHE` sequence numbers are
    remembered so a retried or duplicated request is answered
    idempotently — in particular a duplicated ``units`` request never
    runs the user's kernel twice. Only the newest reply is kept whole:
    the master has one request in flight per pipe and discards stale
    sequence numbers, so an older entry is cut down to ``(seq, kind)``
    (no result patch, no trace events) when the next request arrives —
    the pool's ``reset`` on release included.

    ``units`` is the one data request: ``(seq, "units", units, patch)``
    computes a batch of tiles against the place's plane — see
    :meth:`_PlaceWorker.compute` — and answers ``(seq,
    "done", ncells, seconds, result_patch)``. An exception out of the
    user's ``compute()`` is answered ``(seq, "error", place,
    traceback)`` and the worker keeps serving: the run is the master's
    to abort, and a pooled worker has other jobs to live for.

    **Pooled reuse.** A worker forked by :class:`repro.serve.pool.
    PlacePool` outlives any single run: ``init`` may carry a sixth
    element, the *logical* place id this worker plays for the leasing
    run (the forked ``place_id`` is just a pool serial). Each ``init``
    clears run state — plane, shm attachments, instruments — so runs
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
    worker: Optional[_PlaceWorker] = None
    replied: Dict[int, tuple] = {}
    newest = 0  # the one seq whose cached reply still carries its payload
    ins = _WorkerInstruments(place_id)
    trace_buf: Optional[List[tuple]] = None
    trace_offset = 0.0

    def _clear_run_state() -> None:
        nonlocal worker, ins, trace_buf, trace_offset
        if worker is not None and worker.shared:
            from repro.core import shm

            shm.detach_all()
        worker = None
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
                worker = _PlaceWorker(place_id, *msg[2:5], ins.registry)
                reply = (seq, "ok")
            elif kind == "reset":
                _clear_run_state()
                reply = (seq, "ok")
            elif kind == "units":
                assert worker is not None
                t0 = time.perf_counter()
                try:
                    ncomp, result = worker.compute(*msg[2:], sink=trace_buf)
                except Exception:
                    # the user's compute() raised: report it, stay alive
                    reply = (seq, "error", place_id, traceback.format_exc())
                else:
                    elapsed = time.perf_counter() - t0
                    ins.compute_seconds.inc(elapsed)
                    ins.cells_computed.inc(ncomp)
                    ins.levels_served.inc()
                    reply = (seq, "done", ncomp, elapsed, result)
            elif kind == "redist":
                # recovery re-homed the units: track ownership so the
                # halo accounting stays truthful
                assert worker is not None
                worker.plane.owners = msg[2]
                reply = (seq, "ok")
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
            if newest in replied:
                # superseded: keep the seq (a late duplicate must still
                # not re-run anything), drop what the reply carried
                replied[newest] = replied[newest][:2]
            replied[seq] = reply
            newest = seq
            if len(replied) > _REPLY_CACHE:
                del replied[min(replied)]
            conn.send(reply)
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown races
        return
    finally:
        _clear_run_state()


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
        "dpx10_mp_levels_total", "bulk-synchronous rounds driven by the master"
    ).set(stats.levels)
    registry.counter(
        "dpx10_recoveries_total",
        "fault recoveries performed",
        ("mechanism",),
    ).labels("recovery").set(stats.recoveries)


def _shm_eligible(app: DPX10App, config: DPX10Config, chaos) -> bool:
    """Whether this run's planes may be shared-memory segments.

    Opt-out (``shm=False``) wins; otherwise the plane needs a numeric
    dtype (object values cannot live in a flat segment), no disk
    spilling, no *message* chaos (ChaosPipe perturbs pipe payloads — the
    data must stay on the pipes for those semantics to mean anything),
    and a platform where segments actually work. Ineligible runs get
    private planes and patches on the pipes; nothing else changes.
    """
    if not config.shm:
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
) -> Tuple[_plane.PlaneResults, MPRunStats]:
    """Execute the application on real place processes.

    The master keeps a :class:`~repro.core.plane.TilePlane` over the
    whole matrix and steps the tile wavefront the in-process engines
    step, a :class:`~repro.core.tiling.TileRunState`, in rounds: each
    round ships every place its ready tiles in one request — 1×1 tiles
    when the run has no tile plan — over either plane backing (see the
    module docstring), waits for every place, and releases the
    successors. Rounds make the lock-free cross-process reads, and the
    halo patches, safe: a tile's dependencies always finished in an
    earlier round (or earlier in the same process's batch), and kills
    only fire between rounds at the master's poll points, so no consumer
    can observe a torn write. On a fault-free run the rounds are the
    tile DAG's Kahn generations, :meth:`~repro.core.tiling.TiledDag.levels`.

    Recovery: a dead place's tiles are zeroed on the master plane
    (restoring the "never written reads as zero" invariant for kernel
    windows) and re-homed on the survivors, who receive the new
    ownership via ``redist`` — or kept by a pooled spare that takes over
    the dead place's identity with an empty plane. The wavefront is
    rebuilt from the plane's flags, and the ordinary rounds recompute
    the lost tiles.

    Returns the results as a :class:`~repro.core.plane.PlaneResults`
    plus run stats. Each place process keeps its own metrics registry;
    at gather time the master requests a snapshot over the reply channel
    and merges it into ``registry`` (counters add, histograms add
    bucket-wise), so per-process accounting survives the address-space
    boundary.

    ``chaos`` is an optional :class:`~repro.chaos.controller.
    ChaosController`: its kill plans merge into the fault injector, its
    recovery-kill triggers are polled on the cells a recovery pass kept,
    its throttles slow a place's round batches, and its message block wraps
    every master-side pipe in a :class:`~repro.chaos.network.ChaosPipe`
    (which is also what keeps such runs' values on the pipes).

    ``trace`` (config.trace) collects master-side phase spans plus the
    worker-side per-unit events shipped back over the ``trace`` request,
    normalized onto the master timeline. ``straggler`` is an optional
    :class:`repro.obs.causal.StragglerDetector` fed each place's round
    service time (worker-measured elapsed plus master-side chaos
    throttle sleep, which the worker cannot see).
    """
    ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
    stats = MPRunStats()
    plan = plan_tiles(dag, config)
    # every unit a place computes is a tile: a run with no plan ((1, 1),
    # or a pattern no shape coarsens) runs one cell per tile
    tiled = plan or dag.coarsen(1, 1)
    if trace is not None:
        trace.set_dependency_meta(dag, plan)
    # exact per-tile active-cell counts: completions must count cells
    # (fault injection thresholds and progress are cell-granular)
    ncells_of = tiled.tile_cells
    total_active = int(ncells_of.sum())
    all_plans = list(fault_plans)
    if chaos is not None:
        all_plans += chaos.fault_plans()
    injector = FaultInjector(all_plans, total_active) if all_plans else None

    def on_retry() -> None:
        stats.msg_retries += 1

    shape = (dag.height, dag.width)
    unit = (tiled.grid.tile_h, tiled.grid.tile_w)
    # what a place needs at init besides the app and the dag; segment
    # names are added below when (and only when) the planes are shared
    meta: Dict[str, Any] = {
        "tile_shape": unit,
        "planned": plan is not None,
        "kernel": None,
        "sanitize": config.sanitize,
        "value_nbytes": config.value_nbytes,
        "spill_dir": config.spill_dir,
    }
    shared = _shm_eligible(app, config, chaos)
    arena = None
    try:
        if shared:
            from repro.core.shm import ShmArena

            # pooled segment leases duck-type ShmArena (create/
            # bytes_mapped/close); close() returns the segments to the
            # pool's free list instead of unlinking, so the next job
            # re-leases the same mappings. Places attach by name at init
            # time, so pre-forked pool workers and fresh forks are alike
            pool = config.place_pool
            arena = pool.segment_lease() if pool is not None else ShmArena()
            values, meta["values"] = arena.create(shape, app.value_dtype, "values")
            finished, meta["finished"] = arena.create(shape, np.uint8, "finished")
            plane = _plane.TilePlane(values, finished, tiled.grid)
        else:
            plane = _plane.TilePlane.allocate(
                tiled.grid, app.value_dtype, config.value_nbytes, config.spill_dir
            )
        if arena is not None and registry.enabled:
            registry.gauge(
                "dpx10_shm_bytes_mapped",
                "bytes of shared-memory plane segments currently mapped",
            ).set(arena.bytes_mapped)
        with phase_span(trace, "lease places"):
            procs, lease_pool = _acquire_procs(
                config,
                ctx,
                message=chaos.message if chaos is not None else None,
                chaos_seed=chaos.schedule.seed if chaos is not None else 0,
                record_event=chaos.record if chaos is not None else None,
                on_retry=on_retry,
            )
        stats.warm_start = lease_pool is not None
        trace_ctx = _trace_ctx(trace)
        try:
            alive = sorted(procs)

            with phase_span(trace, "partition"):
                # the master owns the unit-granular owner map (shipped
                # resolved — Dist objects hold closures and cannot cross
                # the pipe) and zeroes lost regions on recovery
                plane.home(config.make_dist(dag.region, alive), tiled.active_tiles())
            meta["owners"] = plane.owners

            if plan is not None:
                stats.tile_shape = unit
                if not config.sanitize:
                    # sanitized runs and unplanned ones keep the per-cell
                    # loop. Classify + probe once here on the master;
                    # places get the decision, a generated kernel as its
                    # picklable spec
                    from repro.analysis.codegen import build_autokernel

                    generated, _cls = build_autokernel(app, dag)
                    kernel = _plane.tile_kernel(app, tiled, generated)
                    stats.kernel = _plane.kernel_name(kernel)
                    if kernel is not None:
                        meta["kernel"] = (
                            "hand" if kernel is not generated else generated.spec
                        )
            for p in alive:
                procs[p].request(("init", app, dag, meta, p, trace_ctx))

            # the next round's tiles per home place: what ``wavefront``
            # releases, in release order
            ready: Dict[int, List[Coord]] = defaultdict(list)

            def push(p: int, tile: Coord) -> None:
                ready[p].append(tile)

            wavefront = TileRunState(tiled)
            with phase_span(trace, "schedule"):
                wavefront.build(plane, alive, push)

            def halo_patch(p: int, units: List[Coord]) -> tuple:
                """What place ``p``'s private plane lacks for this batch.

                The batch's halo cells homed on other places, as
                ``(rows, cols, values)`` off the master plane — each
                finished in an earlier round, so the values are final.
                """
                _, rows, cols = tiled.halos_of(units)
                rows, cols = np.divmod(np.unique(rows * dag.width + cols), dag.width)
                remote = plane.owners_of(rows, cols) != p
                rows, cols = rows[remote], cols[remote]
                return rows, cols, plane.values[rows, cols]

            def compute_round() -> None:
                """One bulk-synchronous step: every place its ready tiles."""
                by_place = dict(sorted(ready.items()))
                ready.clear()
                ncells = {p: sum(int(ncells_of[u]) for u in own) for p, own in by_place.items()}
                if config.pace is not None:  # the whole batch's turn
                    paced(config.pace, sum(ncells.values()), trace)
                throttled: Dict[int, float] = {}
                if chaos is not None and chaos.has_throttles:
                    throttled = {p: chaos.throttle_batch(p, n) for p, n in ncells.items()}
                for p, own in by_place.items():
                    patch = None if shared else halo_patch(p, own)
                    procs[p].send_request(("units", own, patch))
                failure: Optional[RemoteComputeError] = None
                for p in by_place:
                    reply = procs[p].recv_reply()
                    if reply[0] == "error":
                        # keep draining: every pipe must be quiescent
                        # before the places go back to a pool
                        failure = failure or RemoteComputeError(*reply[1:3])
                        continue
                    assert reply[0] == "done"
                    stats.per_place_executed[p] = (
                        stats.per_place_executed.get(p, 0) + reply[1]
                    )
                    if reply[3] is not None:
                        rows, cols, result = reply[3]
                        plane.values[rows, cols] = result
                        plane.finished[rows, cols] = 1
                    if straggler is not None:
                        # fold in the master-side throttle sleep: the
                        # worker's own timer cannot see it
                        straggler.observe(p, reply[2] + throttled.get(p, 0.0), ncells[p])
                if failure is not None:
                    raise failure
                stats.levels += 1
                stats.completions += sum(ncells.values())
                wavefront.on_tiles_finished([u for own in by_place.values() for u in own], push)

            def recover(victims: List[int]) -> None:
                """Section VI-D against real corpses, by the rule
                :func:`~repro.core.recovery.recover_tiled` applies in
                process: lose the dead places' tiles, rebuild the
                wavefront from the plane's flags, and let the rounds that
                follow recompute what was lost.

                With a place pool, each corpse is first swapped for a
                pooled spare initialized as the same logical place (it
                attaches the live segments by name, or starts an empty
                private plane; ``meta`` carries the live owner map), so
                ownership is unchanged. Places the pool cannot replace
                are re-homed on the survivors — place 0 is fatal. The
                chaos controller's mid-recovery kill triggers are polled
                on the cells the pass kept; a place dying *while the pass
                is in flight* restarts it. Each trigger fires once, so
                this ends — at worst in PlaceZeroDeadError, never a hang.
                """
                stats.recoveries += 1
                if chaos is not None:
                    chaos.begin_recovery_pass()
                with phase_span(trace, "recovery", "recovery"):
                    while victims:
                        for v in set(victims):
                            if procs[v].alive:
                                logger.warning("SIGKILL place %d process", v)
                                procs[v].kill()
                        dead = {p for p in procs if not procs[p].alive}
                        replaced: Set[int] = set()
                        if lease_pool is not None:
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
                        if 0 in unreplaced:
                            raise PlaceZeroDeadError()
                        survivors = [p for p in sorted(procs) if procs[p].alive]
                        new_dist = (
                            config.make_dist(dag.region, survivors) if unreplaced else None
                        )
                        plane.lose(dead, new_dist, rehome=unreplaced)
                        if unreplaced:
                            # survivors track the re-homed ownership so their
                            # halo accounting (and nothing else) stays
                            # truthful; pool replacements got it at init
                            for p in survivors:
                                procs[p].request(("redist", plane.owners))
                        kept = int(np.count_nonzero(plane.finished))
                        victims = chaos.poll_recovery(kept) if chaos is not None else []
                    ready.clear()
                    wavefront.build(plane, survivors, push)

            with phase_span(trace, "execute"):
                while ready:
                    compute_round()
                    victims = injector.poll_completions(stats.completions) if injector else []
                    if victims:
                        if chaos is not None:
                            chaos.record("kill", len(victims))
                        recover(victims)

            # no collect round trip: the results already live in the
            # master's plane. Merge each survivor's metrics snapshot (and
            # its normalized trace buffer) and fold its halo-read
            # accounting into the master's network stats (the snapshot is
            # a plain dict, so this works even with the NULL registry)
            with phase_span(trace, "collect"):
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
            missing = total_active - int(np.count_nonzero(plane.finished))
            if missing:
                # name the first few stragglers in domain terms ("node 7"
                # on a tree domain) — raw layout coords mean nothing to
                # the user
                unfinished = (
                    (i, j)
                    for i, j in dag.region
                    if dag.is_active(i, j) and not plane.finished[i, j]
                )
                shown = ", ".join(
                    dag.describe_cell(*c) for c in islice(unfinished, 5)
                )
                raise DPX10Error(
                    f"{missing} vertices missing after run (first: {shown})"
                )
            stats.final_alive_places = sum(
                1 for pr in procs.values() if pr.alive
            )
            if registry.enabled:
                _publish_master_metrics(registry, stats)
            # shared planes are copied out before the segments unlink; a
            # private plane (maybe a spilled memmap) is handed over as is
            return plane.results(copy=shared), stats
        finally:
            _release_procs(procs, lease_pool)
    finally:
        if arena is not None:
            arena.close()
