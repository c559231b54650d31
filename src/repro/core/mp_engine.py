"""The multiprocessing engine's transport: places as real OS processes.

X10 realizes places as processes; the ``inline``/``threaded`` engines fold
them into one Python process. Under ``DPX10Config(engine="mp")`` every
place is a ``multiprocessing.Process``, and :meth:`~repro.core.runtime.
DPX10Runtime.run` drives them with the master loop every engine runs: the
same initialization, :func:`~repro.core.worker.run_inline` turns over the
:class:`~repro.core.tiling.TileRunState` wavefront, the accounting of
:func:`~repro.core.tiling.execute_tiles` and the recovery of
:func:`~repro.core.recovery.recover_tiled`. This module is only the
transport under that loop, which :func:`run_mp` hands the runtime:

* :class:`MPPlaces`, the run's place group. Its :meth:`~MPPlaces.run_tiles`
  takes ``execute_tiles``' executor slot: each place gets its tiles of a
  turn's batch in one ``("units", tiles, halo_patch)`` request, answered
  by ``("done", ncells, (start, end), result_patch)``, and the master
  waits for every reply. ``kill`` SIGKILLs the place's process; the
  recovery hooks swap pooled spares in (``replace``) and tell the places
  the new owner map (``rehomed``); in process those hooks do nothing;
* the place process (:func:`_worker_main`, :class:`_PlaceWorker`)
  computes its tiles against a :class:`~repro.core.plane.TilePlane`
  through :func:`repro.core.plane.run_tiles`, the executor the
  in-process engines run (a run with no tile plan, ``tile_shape=(1, 1)``
  included, is a grid of 1×1 tiles);
* the plane's **backing** is an allocator fact (:func:`_shm_eligible`),
  not a code path. Numeric-dtype apps get ``multiprocessing.
  shared_memory`` segments (lifecycle owned by :mod:`repro.core.shm`)
  that master and places all map: both patches are ``None`` and the
  pipes carry tile indices only. Their names are unlinked once every
  place has attached, and the master's mapping is the run's result, not
  copied out (pooled segments, which the next job re-leases, are).
  Object-valued apps, ``spill_dir`` runs,
  runs under *message* chaos and platforms without shm get a private
  heap/memmap plane per process instead, and the two patches carry what
  a shared mapping would have made visible — the request brings the
  batch's halo cells homed on *other* places, gathered off the master's
  plane; the reply brings the cells just computed, which the master
  writes into its plane. Nothing else differs: same kernels, same
  recovery, same results, same owner-map network accounting;
* a fault is a genuine death of a place process: a planned kill
  (``FaultPlan`` or chaos) SIGKILLs it from the master, and a process
  that dies on its own mid-request surfaces as
  :class:`~repro.errors.DeadPlaceException` once the batch's other
  replies are in. Either way the runtime's recovery rebuilds the
  wavefront over the survivors and the lost tiles recompute.

A batch's tiles are independent and every one of their dependencies
finished in an earlier turn, so the lock-free cross-process reads, and
the halo patches, are safe: no consumer can observe a torn write. Tiles
run at home whatever the scheduling strategy: a place process computes
what its plane homes.

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

Because apps and DAGs cross the pipe, both must be picklable —
module-level classes, not closures or test-local definitions.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
import multiprocessing as mp
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.apgas.network import NetworkModel
from repro.apgas.place import Place, PlaceGroup
from repro.core import plane as _plane
from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.dag import Dag
from repro.core.trace import ExecutionTrace, phase_span, split_span
from repro.errors import DeadPlaceException, RemoteComputeError
from repro.obs.metrics import DEFAULT_BYTES_BUCKETS, NULL_REGISTRY, MetricsRegistry
from repro.util.logging import get_logger

__all__ = ["run_mp", "MPPlaces"]

logger = get_logger("core.mp_engine")

Coord = Tuple[int, int]

_JOIN_TIMEOUT_S = 10.0
#: worker-side reply cache depth: how many past sequence numbers a place
#: can still answer idempotently (covers any realistic retry window —
#: the master has at most one request in flight per pipe)
_REPLY_CACHE = 64


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
        _plane.bind_mapping(dag, self.plane.results(init=app.init_value))
        #: false when the run has no tile plan: its 1×1 tiles report as
        #: the vertices they are — one halo read per producing place per
        #: request rather than per tile
        self.planned = not self.tiled.grid.cellwise
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
        # the patch is the batch's tiles as this place's finish flags
        # show them: computed here, now or before a rollback
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
        call — a turn's tiles are independent, so those that can share a
        kernel sweep do. With ``sink`` set, the call's ``(start, end)``
        on this process's ``perf_counter`` is appended to it.
        """
        tiled, planned = self.tiled, self.planned
        places = [self.place_id] * len(tiles)
        t0 = time.perf_counter()
        done = _plane.run_tiles(
            self.plane, tiled, self.app, self.kernel, tiles, places,
            tiled.halos_of(tiles), self.sanitize,
        )
        if sink is not None:
            sink.append((t0, time.perf_counter()))
        reads: Dict[Any, int] = defaultdict(int)
        for k, (_n, transfers) in enumerate(done):
            # every transfer is a halo read from one remote producer
            for src, _dst, nbytes in transfers:
                reads[(k, src) if planned else src] += nbytes
        for nbytes in reads.values():
            self.read_bytes.inc(nbytes)
            self.read_batches.inc()
            self.halo_bytes.observe(nbytes)
        return sum(n for n, _ in done)


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
            "tile batches served per place process",
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
    (no result patch) when the next request arrives — the pool's
    ``reset`` on release included.

    ``units`` is the one data request: ``(seq, "units", units, patch)``
    computes a batch of tiles against the place's plane — see
    :meth:`_PlaceWorker.compute` — and answers ``(seq, "done", ncells,
    (start, end), result_patch)``, where ``(start, end)`` is the batch's
    ``run_tiles`` call on the master's clock. An exception out of the
    user's ``compute()`` is answered ``(seq, "error", place, traceback)``
    and the worker keeps serving: the run is the master's to abort, and a
    pooled worker has other jobs to live for. ``redist`` brings a new
    owner map after a recovery, and on a private plane the finished cells
    the master's plane homes here (a snapshot rollback may have restored
    cells this place never computed).

    **Pooled reuse.** A worker forked by :class:`repro.serve.pool.
    PlacePool` outlives any single run: ``init`` may carry a sixth
    element, the *logical* place id this worker plays for the leasing
    run (the forked ``place_id`` is just a pool serial). Each ``init``
    clears run state — plane, shm attachments, instruments — so runs
    are independent; ``reset`` does the same without starting a new run
    (the pool sends it on release so idle workers hold no job data).

    **Clock.** ``init`` may carry a seventh element, ``epoch0``: the
    master's wall clock at its clock's zero. The worker turns it into an
    offset from its own ``perf_counter`` (valid because mp places share a
    host), so the batch windows it reports land on the master's timeline.
    """
    worker: Optional[_PlaceWorker] = None
    replied: Dict[int, tuple] = {}
    newest = 0  # the one seq whose cached reply still carries its payload
    ins = _WorkerInstruments(place_id)
    offset = 0.0

    def _clear_run_state() -> None:
        nonlocal worker, ins
        if worker is not None and worker.shared:
            from repro.core import shm

            shm.detach_all()
        worker = None
        ins = _WorkerInstruments(place_id)

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
                offset = 0.0
                if len(msg) > 6 and msg[6] is not None:
                    # anchor this process's perf_counter to the master's
                    # clock through the shared wall clock (same host)
                    offset = (time.time() - msg[6]) - time.perf_counter()
                worker = _PlaceWorker(place_id, *msg[2:5], ins.registry)
                reply = (seq, "ok")
            elif kind == "reset":
                _clear_run_state()
                reply = (seq, "ok")
            elif kind == "units":
                assert worker is not None
                window: List[Tuple[float, float]] = []
                try:
                    ncomp, result = worker.compute(*msg[2:], window)
                except Exception:
                    # the user's compute() raised: report it, stay alive
                    reply = (seq, "error", place_id, traceback.format_exc())
                else:
                    t0, t1 = window[0]
                    ins.compute_seconds.inc(t1 - t0)
                    ins.cells_computed.inc(ncomp)
                    ins.levels_served.inc()
                    reply = (seq, "done", ncomp, (t0 + offset, t1 + offset), result)
            elif kind == "redist":
                # recovery re-homed the units: track ownership so the
                # halo accounting stays truthful
                assert worker is not None
                worker.plane.owners = msg[2]
                if msg[3] is not None:
                    rows, cols, values = msg[3]
                    worker.plane.values[rows, cols] = values
                    worker.plane.finished[rows, cols] = 1
                reply = (seq, "ok")
            elif kind == "stats":
                reply = (seq, "stats", ins.registry.collect())
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
        raise DeadPlaceException(self.place_id) from exc

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
            # chaos-free (no timeout): block forever, as a plain pipe recv would
            deadline = None if self.timeout_s is None else time.monotonic() + self.timeout_s
            while True:
                try:
                    if deadline is not None and not self.conn.poll(
                        max(0.0, deadline - time.monotonic())
                    ):
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
        """Send and await a reply; raises DeadPlaceException if the place died."""
        self.send_request(body)
        return self.recv_reply()

    # -- lifecycle ---------------------------------------------------------------
    def kill(self) -> None:
        """SIGKILL the process if it still runs, and reap it."""
        if self.proc.is_alive():
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


def _shm_eligible(app: DPX10App, config: DPX10Config, chaos) -> bool:
    """Whether this run's planes may be shared-memory segments.

    Opt-out (``shm=False``) wins; otherwise the plane needs a numeric
    dtype (object values cannot live in a flat segment), no disk
    spilling, no *message* chaos (ChaosPipe perturbs pipe payloads — the
    data must stay on the pipes for those semantics to mean anything),
    and a platform where segments actually work. Ineligible runs get
    private planes and patches on the pipes; nothing else changes.
    """
    from repro.core.shm import shm_supported

    return bool(
        config.shm and app.value_dtype is not None and config.spill_dir is None
        and (chaos is None or chaos.message is None) and shm_supported()
    )


def _total(snapshot: Dict[str, dict], name: str) -> int:
    """The sum of one counter family of a metrics snapshot."""
    return int(sum(v for _, v in snapshot.get(name, {}).get("values", [])))


class MPPlaces(PlaceGroup):
    """The place group of one mp run: a process per place.

    The runtime drives it as any :class:`~repro.apgas.place.PlaceGroup`;
    what it adds is the transport. :meth:`allocate` makes the run's
    plane and :meth:`start` ships each place the app, the dag and the
    plan; :meth:`run_tiles` computes a batch on the places; :meth:`kill`,
    :meth:`replace` and :meth:`rehomed` act on processes during recovery;
    :meth:`collect` folds the places' accounting in at the end, and
    :meth:`close` hands the processes and segments back.

    Places are leased from ``config.place_pool`` (warm) or forked; runs
    under *message* chaos always fork their own, since the ChaosPipe
    wrapper is installed at fork time. Leased handles are keyed
    ``0..n-1`` like fresh ones; the init envelope's place-id field
    relabels each worker to the logical place it plays for this run.
    """

    def __init__(
        self,
        app: DPX10App,
        dag: Dag,
        config: DPX10Config,
        network: NetworkModel,
        registry: MetricsRegistry,
        chaos,
        trace: Optional[ExecutionTrace],
    ) -> None:
        super().__init__(config.nplaces)
        self.app, self.dag, self.config = app, dag, config
        self.network, self.registry, self.chaos, self.trace = network, registry, chaos, trace
        self.shared = _shm_eligible(app, config, chaos)
        self.arena = None
        #: tile batches shipped: one per turn of the runtime's loop
        self.batches = 0
        # the master's clock (the trace's, when traced): the places report
        # their batch windows on it, anchored through the wall clock
        self.clock = trace.now if trace is not None else time.perf_counter
        self.epoch0 = time.time() - self.clock()
        #: what a place needs at init besides the app and the dag; segment
        #: names are added when (and only when) the planes are shared
        self.meta: Dict[str, Any] = {
            "sanitize": config.sanitize,
            "value_nbytes": config.value_nbytes,
            "spill_dir": config.spill_dir,
        }
        message = chaos.message if chaos is not None else None
        self.pool = config.place_pool if message is None else None
        with phase_span(trace, "lease places"):
            if self.pool is not None:
                self.procs = self.pool.lease(config.nplaces)
                for proc in self.procs.values():
                    proc.bind_run(network.record_retry)
            else:
                ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
                self.procs = {
                    p: _PlaceProc(
                        p,
                        ctx,
                        message=message,
                        chaos_seed=chaos.schedule.seed if chaos is not None else 0,
                        record_event=chaos.record if chaos is not None else None,
                        on_retry=network.record_retry,
                    )
                    for p in range(config.nplaces)
                }

    def _init(self, p: int) -> tuple:
        return ("init", self.app, self.dag, self.meta, p, self.epoch0)

    def _request(self, p: int, body: tuple) -> tuple:
        try:
            return self.procs[p].request(body)
        except DeadPlaceException as exc:
            self.kill(p)
            raise DeadPlaceException(p) from exc

    # -- start-up --------------------------------------------------------------------
    def allocate(self, grid) -> _plane.TilePlane:
        """The run's plane: segments every place maps, or the master's own."""
        app, config = self.app, self.config
        if not self.shared:
            return _plane.TilePlane.allocate(
                grid, app.value_dtype, config.value_nbytes, config.spill_dir
            )
        from repro.core.shm import ShmArena

        # pooled segment leases duck-type ShmArena (create/bytes_mapped/
        # close); close() returns the segments to the pool's free list
        # instead of unlinking, so the next job re-leases the same
        # mappings. Places attach by name at init time, so pre-forked
        # pool workers and fresh forks are alike
        pool = config.place_pool
        self.arena = pool.segment_lease() if pool is not None else ShmArena()
        shape = (grid.height, grid.width)
        values, self.meta["values"] = self.arena.create(shape, app.value_dtype, "values")
        finished, self.meta["finished"] = self.arena.create(shape, np.uint8, "finished")
        if self.registry.enabled:
            self.registry.gauge(
                "dpx10_shm_bytes_mapped",
                "bytes of shared-memory plane segments currently mapped",
            ).set(self.arena.bytes_mapped)
        return _plane.TilePlane(values, finished, grid)

    def start(self, state) -> None:
        """Initialize every place with the plan, and take the executor slot.

        Places get the kernel decision, not the kernel: ``None`` (the
        per-cell loop), ``"hand"`` or a generated kernel's picklable spec,
        which each place re-emits. The owner map goes resolved (Dist
        objects hold closures and cannot cross the pipe).
        """
        grid, kernel = state.plane.grid, state.kernel
        self.meta.update(
            tile_shape=(grid.tile_h, grid.tile_w),
            kernel=None if kernel is None else getattr(kernel, "spec", "hand"),
            owners=state.plane.owners,
        )
        for p in self.alive_ids():
            self._request(p, self._init(p))
        if self.arena is not None and self.pool is None:
            self.arena.unlink()  # every place has attached: nothing can leak
        state.run_tiles = self.run_tiles

    # -- the batch executor ------------------------------------------------------------
    def run_tiles(self, plane, tiled, app, kernel, tiles, places, halo, sanitize) -> list:
        """:func:`~repro.core.tiling.execute_tiles`' executor on processes.

        Each place gets its tiles of the batch in one ``units`` request —
        on a private plane with the halo cells it lacks — and the master
        waits for every reply. Returns, per tile, its cell count, no
        transfers (the places count their halo reads; :meth:`collect`
        folds them in) and its span: its share of its place's batch
        window, which for a throttled place also covers the chaos sleep
        the master took before sending, where the place cannot see it.
        Every pipe is drained before a remote ``compute()`` error is
        raised. A place that died answers ``None`` for each of its tiles,
        which ``execute_tiles`` accounts the survivors' replies around
        before it raises ``DeadPlaceException`` for the runtime's recovery.
        """
        own: Dict[int, List[int]] = defaultdict(list)
        for k, p in enumerate(places):
            own[p].append(k)
        counts = {p: [int(tiled.tile_cells[tiles[k]]) for k in ks] for p, ks in own.items()}
        throttles = self.chaos is not None and self.chaos.has_throttles
        opened: Dict[int, float] = {}
        dead: List[int] = []
        for p, ks in own.items():
            t = self.clock()
            if throttles and self.chaos.throttle_batch(p, sum(counts[p])):
                opened[p] = t
            units = [tiles[k] for k in ks]
            patch = None if self.shared else self._halo_patch(plane, tiled, p, units)
            try:
                self.procs[p].send_request(("units", units, patch))
            except DeadPlaceException:
                dead.append(p)
        done: list = [None] * len(tiles)
        failure: Optional[RemoteComputeError] = None
        for p, ks in own.items():
            if p in dead:
                continue
            try:
                reply = self.procs[p].recv_reply()
            except DeadPlaceException:
                dead.append(p)
                continue
            if reply[0] == "error":
                # keep draining: every pipe must be quiescent before the
                # places go back to a pool
                failure = failure or RemoteComputeError(*reply[1:3])
                continue
            (start, end), result = reply[2], reply[3]
            if result is not None:
                rows, cols, values = result
                plane.values[rows, cols] = values
                plane.finished[rows, cols] = 1
            spans = split_span(opened.get(p, start), end, counts[p])
            for k, n, span in zip(ks, counts[p], spans):
                done[k] = (n, (), span)
        self.batches += 1
        for p in dead:
            self.kill(p)
        if failure is not None:
            raise failure
        return done

    def _halo_patch(self, plane, tiled, p: int, units: List[Coord]) -> tuple:
        """What place ``p``'s private plane lacks for its ``units``.

        Their halo cells homed on other places, as ``(rows, cols,
        values)`` off the master plane — each finished in an earlier
        turn, so the values are final.
        """
        _, rows, cols = tiled.halos_of(units)
        width = self.dag.width
        rows, cols = np.divmod(np.unique(rows * width + cols), width)
        remote = plane.owners_of(rows, cols) != p
        rows, cols = rows[remote], cols[remote]
        return rows, cols, plane.values[rows, cols]

    # -- recovery hooks ------------------------------------------------------------------
    def kill(self, place_id: int) -> None:
        """The place dies for real: SIGKILL its process, if it still runs."""
        if self.procs[place_id].alive:
            logger.warning("SIGKILL place %d process", place_id)
        self.procs[place_id].kill()
        super().kill(place_id)

    def replace(self, dead: Sequence[int]) -> List[int]:
        """Swap pooled spares in for dead places, under the same ids.

        A spare attaches the live segments by name, or starts an empty
        private plane, and keeps the dead place's tiles, so the job's
        distribution holds and only those tiles recompute. Without a pool
        nothing is replaced.
        """
        revived: List[int] = []
        if self.pool is None:
            return revived
        for p in sorted(dead):
            spare = self.pool.take_spare(self.procs[p])
            if spare is None:
                break
            spare.bind_run(self.network.record_retry)
            self.procs[p] = spare
            self._places[p] = Place(p)
            self._request(p, self._init(p))
            logger.warning("place %d restarted from pool", p)
            revived.append(p)
        return revived

    def rehomed(self, plane) -> None:
        """Tell every live place the owner map a recovery pass left.

        On a private plane after a snapshot rollback, each place also
        gets the finished cells homed on it: the rollback may have
        restored cells it never computed.
        """
        cells = None
        if not self.shared and self.config.ft_mode == "snapshot":
            cells = np.nonzero(plane.finished)
            homes = plane.owners_of(*cells)
        for p in self.alive_ids():
            patch = None
            if cells is not None:
                rows, cols = (c[homes == p] for c in cells)
                patch = (rows, cols, plane.values[rows, cols])
            self._request(p, ("redist", plane.owners, patch))

    # -- the end of the run --------------------------------------------------------------
    def collect(self, state) -> None:
        """Fold each live place's metrics snapshot into the run.

        Counters add into the registry, and the places' halo reads are
        the run's network traffic (the snapshot is a plain dict, so this
        works with the NULL registry too). The plane is the result and
        stays put; only pooled segments, the next job's, are copied out.
        """
        stats = self.network.stats
        with phase_span(self.trace, "collect"):
            for p in self.alive_ids():
                try:
                    snapshot = self._request(p, ("stats",))[1]
                except DeadPlaceException:
                    continue  # its tiles are all on the plane already
                self.registry.merge(snapshot)
                stats.bytes += _total(snapshot, "dpx10_mp_shm_read_bytes_total")
                stats.messages += _total(snapshot, "dpx10_mp_shm_read_batches_total")
        if self.registry.enabled:
            self.registry.counter(
                "dpx10_mp_levels_total", "tile batches the master shipped to the places"
            ).set(self.batches)
        if self.shared and self.pool is not None:
            plane = state.plane
            plane.values, plane.finished = np.array(plane.values), plane.finished.copy()

    def close(self) -> None:
        """Return leased processes to their pool, or stop owned ones; then
        hand the segments back to the pool, or drop the arena's handles
        (the plane's own mapping stays while the result views it)."""
        try:
            if self.pool is not None:
                self.pool.release(list(self.procs.values()))
            else:
                for proc in self.procs.values():
                    proc.stop()
        finally:
            if self.arena is not None:
                self.arena.close()


@contextmanager
def run_mp(
    app: DPX10App,
    dag: Dag,
    config: DPX10Config,
    network: NetworkModel,
    registry: MetricsRegistry = NULL_REGISTRY,
    chaos=None,
    trace: Optional[ExecutionTrace] = None,
) -> Iterator[MPPlaces]:
    """The transport of one mp run, for the runtime's master loop to drive.

    Leases (or forks) the place processes and yields them as an
    :class:`MPPlaces` group: :meth:`DPX10Runtime.run
    <repro.core.runtime.DPX10Runtime.run>` allocates the plane through
    it, starts the places, hands it ``execute_tiles``' batches and its
    dead places' recovery, and collects from it. However the run ends,
    the processes then go back to their pool (or stop) and the arena
    lets go of the plane's segments.

    ``chaos`` is an optional :class:`~repro.chaos.controller.
    ChaosController`: its throttles slow a place's batches, and its
    message block wraps every master-side pipe in a
    :class:`~repro.chaos.network.ChaosPipe` (which is also what keeps
    such runs' values on the pipes). Its kills are the runtime's to fire.
    """
    places = MPPlaces(app, dag, config, network, registry, chaos, trace)
    try:
        yield places
    finally:
        places.close()
