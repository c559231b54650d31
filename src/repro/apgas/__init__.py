"""A miniature APGAS (Asynchronous Partitioned Global Address Space) substrate.

X10 realizes APGAS with *places* (OS processes holding a partition of the
global address space plus worker threads) and *activities* (lightweight
asynchronous tasks, ``async S``). DPX10 is built entirely on those two
concepts plus Resilient X10's dead-place signalling.

This package provides the same semantics in-process:

* :class:`~repro.apgas.place.Place` / :class:`~repro.apgas.place.PlaceGroup`
  — partitioned local storage with alive/dead state;
* :class:`~repro.apgas.runtime.GlobalRuntime` — ``at`` / ``async_at`` /
  ``finish`` constructs executed by a pluggable engine;
* :class:`~repro.apgas.engine.InlineEngine` — deterministic single-threaded
  execution (FIFO activity queue), used for tests and reproducible runs;
* :class:`~repro.apgas.engine.ThreadedEngine` — one worker pool per place,
  real concurrency;
* :class:`~repro.apgas.failure.FaultPlan` — deterministic fault injection
  producing :class:`~repro.errors.DeadPlaceException`;
* :class:`~repro.apgas.network.NetworkModel` — latency/bandwidth accounting
  for inter-place traffic.

The DPX10 runtime uses places, fault injection and the network model
directly and drives its own workers (:mod:`repro.core.worker`);
``GlobalRuntime`` and the activity engines are a standalone rendering of
the X10 constructs, not on any run's path.
"""

from repro.apgas.activity import Activity
from repro.apgas.engine import ExecutionEngine, InlineEngine, ThreadedEngine
from repro.apgas.failure import FaultInjector, FaultPlan
from repro.apgas.network import NetworkModel, NetworkStats
from repro.apgas.place import Place, PlaceGroup
from repro.apgas.runtime import GlobalRuntime

__all__ = [
    "Activity",
    "ExecutionEngine",
    "InlineEngine",
    "ThreadedEngine",
    "FaultInjector",
    "FaultPlan",
    "NetworkModel",
    "NetworkStats",
    "Place",
    "PlaceGroup",
    "GlobalRuntime",
]
