"""The hardened mp message path under drop / duplicate / delay / reorder.

Covers all three layers: the :class:`ChaosPipe` fault injector itself
(against a fake connection), the worker's idempotent sequence-number
deduplication (driving ``_worker_main`` directly over a real pipe), and
full mp runs whose replies are dropped, duplicated and reordered — which
must stay cell-for-cell exact while the retry counters surface in the
merged metrics snapshot.
"""

import multiprocessing as mp
import threading
from collections import deque

import numpy as np

from repro.chaos.harness import CaseSpec, build_case, run_case
from repro.chaos.network import DROPPED, ChaosPipe
from repro.chaos.schedule import ChaosSchedule, MessageChaos
from repro.core.config import DPX10Config
from repro.core.mp_engine import _worker_main
from repro.core.runtime import DPX10Runtime


class FakeConn:
    """An in-memory stand-in for one end of a multiprocessing pipe."""

    def __init__(self):
        self.sent = []
        self.queue = deque()

    def send(self, msg):
        self.sent.append(msg)

    def recv(self):
        return self.queue.popleft()

    def poll(self, timeout=0.0):
        return bool(self.queue)

    def close(self):
        pass


def _pipe(fake, **chaos_kwargs):
    events = []
    chaos = MessageChaos(**chaos_kwargs)
    return ChaosPipe(fake, chaos, seed=7, record_event=events.append), events


class TestChaosPipe:
    def test_certain_drop_loses_the_send(self):
        fake = FakeConn()
        pipe, events = _pipe(fake, p_drop=1.0)
        pipe.send(("hello",))
        assert fake.sent == []
        assert events == ["msg_drop"]

    def test_certain_drop_turns_recv_into_silence(self):
        fake = FakeConn()
        pipe, events = _pipe(fake, p_drop=1.0)
        fake.queue.append((1, "done"))
        assert pipe.recv() is DROPPED
        assert "msg_drop" in events

    def test_certain_dup_sends_twice(self):
        fake = FakeConn()
        pipe, events = _pipe(fake, p_dup=1.0)
        pipe.send((1, "compute"))
        assert fake.sent == [(1, "compute"), (1, "compute")]
        assert events == ["msg_dup"]

    def test_certain_reorder_swaps_queued_replies(self):
        fake = FakeConn()
        pipe, events = _pipe(fake, p_reorder=1.0)
        fake.queue.extend([(1, "first"), (2, "second")])
        assert pipe.recv() == (2, "second")
        assert pipe.recv() == (1, "first")  # served from the stash
        assert events == ["msg_reorder"]

    def test_delay_is_recorded(self):
        fake = FakeConn()
        pipe, events = _pipe(fake, p_delay=1.0, delay_s=0.0)
        pipe.send((1, "compute"))
        assert events == ["msg_delay"]
        assert fake.sent == [(1, "compute")]

    def test_poll_sees_the_stash(self):
        fake = FakeConn()
        pipe, _ = _pipe(fake, p_reorder=1.0)
        fake.queue.extend([(1, "a"), (2, "b")])
        pipe.recv()
        fake.queue.clear()
        assert pipe.poll(0)  # the stashed (1, "a") is still deliverable

    def test_raw_stays_reachable_for_teardown(self):
        fake = FakeConn()
        pipe, _ = _pipe(fake, p_drop=1.0)
        assert pipe.raw is fake


def _snapshot_value(snapshot, name):
    values = snapshot.get(name, {}).get("values", [])
    return sum(v for _, v in values)


def _private_meta(dag):
    """The init meta of a (1, 1) private-plane run owned by place 1."""
    return {
        "tile_shape": (1, 1),
        "planned": False,
        "kernel": None,
        "sanitize": False,
        "value_nbytes": 8,
        "spill_dir": None,
        "owners": np.full((dag.height, dag.width), 1, np.int32),
    }


class TestWorkerDedup:
    """Drive the worker loop directly: duplicates must not recompute."""

    def _start_worker(self):
        parent, child = mp.Pipe()
        t = threading.Thread(
            target=_worker_main, args=(1, child), daemon=True
        )
        t.start()
        return parent, t

    def test_duplicate_compute_answered_from_cache(self):
        spec = CaseSpec(pattern="diagonal", height=3, width=3)
        app, dag, _ = build_case(spec)
        parent, t = self._start_worker()
        try:
            parent.send((1, "init", app, dag, _private_meta(dag)))
            assert parent.recv() == (1, "ok")
            # the one data request: units, plus the (here empty) halo patch
            empty = np.empty(0, np.int64)
            request = (2, "units", [(0, 0)], (empty, empty, empty))
            parent.send(request)
            first = parent.recv()
            # (seq, "done", ncells, elapsed_seconds, result_patch)
            assert first[:3] == (2, "done", 1)
            rows, cols, values = first[4]
            assert (rows.tolist(), cols.tolist()) == ([0], [0])
            # the duplicate delivery (chaos dup or master retry): the
            # cached reply comes back verbatim, the kernel does not rerun
            parent.send(request)
            again = parent.recv()
            assert again[:4] == first[:4]
            assert again[4][2].tolist() == values.tolist()
            parent.send((3, "stats"))
            snapshot = parent.recv()[2]
            assert _snapshot_value(snapshot, "dpx10_mp_worker_cells_total") == 1
            assert _snapshot_value(snapshot, "dpx10_mp_worker_dedup_total") == 1
        finally:
            parent.send((9, "stop"))
            assert parent.recv() == (9, "bye")
            t.join(timeout=5)

    def test_duplicate_stop_still_terminates(self):
        spec = CaseSpec(pattern="diagonal", height=3, width=3)
        app, dag, _ = build_case(spec)
        parent, t = self._start_worker()
        parent.send((1, "init", app, dag, _private_meta(dag)))
        assert parent.recv() == (1, "ok")
        parent.send((2, "stop"))
        assert parent.recv() == (2, "bye")
        t.join(timeout=5)
        assert not t.is_alive()


def _message_schedule(seed=0, **kwargs):
    defaults = dict(timeout_s=0.1, max_retries=12, backoff_s=0.002)
    defaults.update(kwargs)
    return ChaosSchedule(seed=seed, message=MessageChaos(**defaults))


class TestMpRuns:
    def test_dropped_replies_are_retried_and_exact(self):
        spec = CaseSpec(pattern="diagonal", engine="mp", nplaces=3)
        result = run_case(spec, _message_schedule(seed=11, p_drop=0.2))
        assert result.ok, result.describe()
        assert result.msg_retries > 0
        assert result.injected.get("msg_drop", 0) > 0

    def test_duplicated_and_reordered_replies_are_exact(self):
        spec = CaseSpec(pattern="diagonal", engine="mp", nplaces=3)
        result = run_case(
            spec, _message_schedule(seed=12, p_dup=0.5, p_reorder=0.5)
        )
        assert result.ok, result.describe()
        assert result.injected.get("msg_dup", 0) > 0
        assert result.injected.get("msg_reorder", 0) > 0
        # duplicates never inflate the work: the dedup above guarantees it
        assert result.mismatch_count == 0

    def test_retry_counter_lands_in_merged_metrics(self):
        spec = CaseSpec(pattern="diagonal", engine="mp", nplaces=3)
        app, dag, _ = build_case(spec)
        config = DPX10Config(
            nplaces=3,
            engine="mp",
            tile_shape=(1, 1),
            metrics=True,
            chaos=_message_schedule(seed=13, p_drop=0.25, p_dup=0.3),
        )
        report = DPX10Runtime(app, dag, config).run()
        assert report.msg_retries > 0
        assert report.metrics is not None
        assert (
            _snapshot_value(report.metrics, "dpx10_msg_retries_total")
            == report.msg_retries
        )
        injected = report.metrics.get("dpx10_chaos_injected_total", {})
        kinds = {labels[0] for labels, _ in injected.get("values", [])}
        assert "msg_drop" in kinds
        # worker-side dedup counters survive the cross-process merge
        assert (
            _snapshot_value(report.metrics, "dpx10_mp_worker_dedup_total") > 0
        )

    def test_chaos_free_mp_run_reports_zero_retries(self):
        spec = CaseSpec(pattern="diagonal", engine="mp", nplaces=3)
        result = run_case(spec, ChaosSchedule(seed=0))
        assert result.ok and result.msg_retries == 0

    def test_message_chaos_composes_with_kills(self):
        from repro.chaos.schedule import KillSpec

        spec = CaseSpec(pattern="diagonal", engine="mp", nplaces=3)
        schedule = ChaosSchedule(
            seed=14,
            kills=(KillSpec(1, after_completions=40),),
            message=MessageChaos(
                p_drop=0.15, timeout_s=0.1, max_retries=12, backoff_s=0.002
            ),
        )
        result = run_case(spec, schedule)
        assert result.ok, result.describe()
        assert result.recoveries >= 1
