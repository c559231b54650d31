"""The per-run chaos controller.

One :class:`ChaosController` is built per run from the
:class:`~repro.chaos.schedule.ChaosSchedule` in ``DPX10Config(chaos=...)``.
The runtime and both recovery paths consult it at fixed points:

* ``fault_plans()`` — the schedule's kill events, merged into the run's
  :class:`~repro.apgas.failure.FaultInjector`;
* ``on_execute(place_id)`` — the per-vertex throttle hook (worker path);
* ``begin_recovery_pass()`` / ``poll_recovery(progress)`` — recovery-kill
  triggers, polled by every engine's recovery with the cells the pass
  salvaged;
* ``record(kind)`` — every injected event is counted into
  ``dpx10_chaos_injected_total{kind}`` on the run's metrics registry.

The controller is thread-safe (threaded-engine workers throttle and the
injector fires concurrently) and each recovery-kill spec fires at most
once.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.chaos.schedule import ChaosSchedule, MessageChaos
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

__all__ = ["ChaosController"]


class ChaosController:
    """Run-scoped chaos state machine over one :class:`ChaosSchedule`."""

    def __init__(
        self,
        schedule: ChaosSchedule,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self.schedule = schedule
        self._lock = threading.Lock()
        self._pending_recovery_kills = list(schedule.recovery_kills)
        self._throttles = {t.place_id: t.sleep_s for t in schedule.throttles}
        self._throttles_seen: set = set()
        self._pass_no = 0
        #: injected events by kind, scraped into the metrics registry and
        #: readable post-run regardless of whether metrics are enabled
        self.counts: Dict[str, int] = {}
        self._counter = metrics.counter(
            "dpx10_chaos_injected_total",
            "chaos events injected into the run, by kind",
            ("kind",),
        )

    # -- accounting -----------------------------------------------------------
    def record(self, kind: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[kind] = self.counts.get(kind, 0) + amount
        self._counter.labels(kind).inc(amount)

    # -- kill plans ------------------------------------------------------------
    def fault_plans(self):
        return self.schedule.fault_plans()

    @property
    def message(self) -> Optional[MessageChaos]:
        return self.schedule.message

    # -- throttles (worker hot path) --------------------------------------------
    @property
    def has_throttles(self) -> bool:
        return bool(self._throttles)

    def on_execute(self, place_id: int) -> None:
        """Apply the slow-place throttle for one vertex, if configured."""
        sleep_s = self._throttles.get(place_id)
        if sleep_s is None:
            return
        if place_id not in self._throttles_seen:
            with self._lock:
                first = place_id not in self._throttles_seen
                self._throttles_seen.add(place_id)
            if first:
                self.record("throttle")
        if sleep_s > 0:
            time.sleep(sleep_s)

    def throttle_batch(self, place_id: int, ncells: int) -> float:
        """The batch form of :meth:`on_execute`: one sleep per tile or
        level batch (the worker process cannot be throttled per vertex
        from the outside), capped so a large matrix cannot stall the
        driver. Returns the seconds slept so callers (the mp master's
        straggler accounting) can attribute the injected latency to the
        throttled place's service time."""
        sleep_s = self._throttles.get(place_id)
        if sleep_s is None or ncells <= 0:
            return 0.0
        if place_id not in self._throttles_seen:
            with self._lock:
                first = place_id not in self._throttles_seen
                self._throttles_seen.add(place_id)
            if first:
                self.record("throttle")
        if sleep_s <= 0:
            return 0.0
        slept = min(0.05, sleep_s * ncells)
        time.sleep(slept)
        return slept

    # -- recovery-kill triggers ---------------------------------------------------
    def begin_recovery_pass(self) -> int:
        """Note that a new recovery pass started; returns its 1-based number.

        Called once per runtime-level recovery entry (internal restarts of
        the same pass after a mid-recovery death do not advance it).
        """
        with self._lock:
            self._pass_no += 1
            return self._pass_no

    @property
    def recovery_pass(self) -> int:
        return self._pass_no

    def poll_recovery(self, progress: int, pass_no: Optional[int] = None) -> List[int]:
        """Place ids whose recovery-kill trigger fired; each fires once.

        ``progress`` counts the current pass's salvaged cells. ``pass_no``
        defaults to the pass opened by the latest :meth:`begin_recovery_pass`.
        """
        with self._lock:
            current = self._pass_no if pass_no is None else pass_no
            fired = [
                spec
                for spec in self._pending_recovery_kills
                if spec.during_pass <= current and spec.after_progress <= progress
            ]
            for spec in fired:
                self._pending_recovery_kills.remove(spec)
        for _ in fired:
            self.record("recovery_kill")
        return [spec.place_id for spec in fired]

    @property
    def pending_recovery_kills(self) -> int:
        with self._lock:
            return len(self._pending_recovery_kills)
