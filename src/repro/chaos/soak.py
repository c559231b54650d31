"""Server-level chaos soak: kill places mid-request, jobs must still land.

The chaos battery (PR 4) proves engine-level recovery: a run with seeded
faults produces the same matrix as a fault-free run. This module lifts
that proof one layer up, to the serving stack: a :class:`JobServer` with
``allow_faults=True`` receives a stream of jobs whose requests carry
:class:`~repro.chaos.faults.FaultPlan`s that SIGKILL place processes
mid-execution. The pass condition per trial is strict:

* the job reaches ``done`` (a mid-request place death must be absorbed
  by a warm restart from the pool, never surfaced as a failed job), and
* the returned score is **bit-identical** to the serial oracle for the
  same inputs — recovery recomputed exactly the lost cells, no more, no
  less.

Faulted requests run with ``use_cache=False``: the result cache keys on
inputs only (faults are execution detail, not semantics), so a cached
fault-free result would otherwise satisfy the request without ever
exercising recovery.

Drive it from the CLI (``python -m repro chaos soak``), from tests
(``tests/serve/test_soak.py``), or from CI (over HTTP via
``--http`` to cover the transport too).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve.api import APPS

__all__ = ["SoakSpec", "SoakTrial", "SoakReport", "run_soak"]

#: apps covering three distinct dependency patterns (diagonal wavefront,
#: full grid, interval) — enough shape diversity to catch
#: pattern-specific recovery bugs without a full catalog sweep
DEFAULT_SOAK_APPS = ("sw", "mtp", "lcs")


@dataclass(frozen=True)
class SoakSpec:
    """Shape of one soak run."""

    requests: int = 12
    apps: Sequence[str] = DEFAULT_SOAK_APPS
    #: synthetic instance side length (DP matrix is roughly size x size)
    size: int = 64
    nplaces: int = 3
    tenants: Sequence[str] = ("alice", "bob")
    seed_base: int = 0
    #: every k-th request carries no fault (k = 1/(1-fraction)); 1.0
    #: faults every request
    fault_fraction: float = 1.0
    #: where in the run the kill lands (fraction of completions)
    kill_at: float = 0.4
    pool_capacity: Optional[int] = None

    def plan(self) -> List[Tuple[str, str, int, bool, int]]:
        """The request stream: (app, tenant, seed, faulted, victim)."""
        out = []
        for i in range(self.requests):
            app = list(self.apps)[i % len(list(self.apps))]
            tenant = list(self.tenants)[i % len(list(self.tenants))]
            faulted = (
                self.fault_fraction >= 1.0
                or (i * self.fault_fraction) % 1.0 + self.fault_fraction >= 1.0
            )
            # rotate the victim over every place, including place 0 —
            # with a warm pool even the master's place 0 peer is
            # replaceable mid-run
            victim = i % self.nplaces
            out.append((app, tenant, self.seed_base + i, faulted, victim))
        return out


@dataclass
class SoakTrial:
    """One request's outcome against its oracle."""

    app: str
    tenant: str
    seed: int
    faulted: bool
    victim: int
    status: str = "unsubmitted"
    score: Optional[int] = None
    expected: Optional[int] = None
    recoveries: int = 0
    wall_time: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "done" and self.score == self.expected

    def describe(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        fault = f"kill p{self.victim}" if self.faulted else "no fault"
        detail = (
            f"score {self.score} == oracle {self.expected}"
            if self.ok
            else f"status={self.status} score={self.score} "
            f"oracle={self.expected} {self.error}"
        )
        return (
            f"[{verdict}] {self.app} seed={self.seed} tenant={self.tenant} "
            f"({fault}, {self.recoveries} recoveries, "
            f"{self.wall_time:.3f}s): {detail}"
        )


@dataclass
class SoakReport:
    """Every trial plus the pool's restart accounting."""

    trials: List[SoakTrial] = field(default_factory=list)
    restarts_served: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return bool(self.trials) and all(t.ok for t in self.trials)

    @property
    def failures(self) -> List[SoakTrial]:
        return [t for t in self.trials if not t.ok]

    def describe(self) -> str:
        lines = [t.describe() for t in self.trials]
        n_fault = sum(1 for t in self.trials if t.faulted)
        lines.append(
            f"soak: {len(self.trials)} requests ({n_fault} faulted) — "
            f"{len(self.trials) - len(self.failures)} ok, "
            f"{len(self.failures)} failed; "
            f"{self.restarts_served} pool restarts served; "
            f"{self.elapsed:.2f}s"
        )
        return "\n".join(lines)


def _request_body(
    spec: SoakSpec, app: str, tenant: str, seed: int, faulted: bool, victim: int
) -> Dict[str, Any]:
    body: Dict[str, Any] = {
        "tenant": tenant,
        "app": app,
        "params": {"size": spec.size, "seed": seed},
        "engine": "mp",
        "nplaces": spec.nplaces,
        # the per-vertex path: planned, a soak-sized job is a single tile
        # and the kill would find nothing left to interrupt
        "tile_shape": [1, 1],
        # a cached fault-free result would short-circuit recovery
        "use_cache": False,
    }
    if faulted:
        body["faults"] = [{"place": victim, "at_fraction": spec.kill_at}]
    return body


def _submit_http(base_url: str, body: Dict[str, Any]) -> Dict[str, Any]:
    import json
    import urllib.request

    req = urllib.request.Request(
        base_url + "/jobs",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


def run_soak(
    spec: SoakSpec,
    server: Optional[Any] = None,
    *,
    over_http: bool = False,
    verbose: bool = False,
) -> SoakReport:
    """Run the soak; returns a report whose ``ok`` is the pass verdict.

    ``server`` may be a pre-built :class:`~repro.serve.server.JobServer`
    (it must have ``allow_faults=True``); otherwise one is created and
    closed around the run. ``over_http`` routes submissions through a
    background HTTP listener instead of calling ``submit`` in-process.
    """
    from repro.serve.server import JobServer, serve_background

    own_server = server is None
    if own_server:
        server = JobServer(
            port=0,
            pool_capacity=spec.pool_capacity,
            allow_faults=True,
            max_queued=max(32, spec.requests),
        )
    if not server.allow_faults:
        raise ValueError("soak needs a server with allow_faults=True")

    report = SoakReport()
    start = time.monotonic()

    def _drive(submit) -> None:
        pending: List[Tuple[SoakTrial, str]] = []
        for app, tenant, seed, faulted, victim in spec.plan():
            trial = SoakTrial(
                app=app, tenant=tenant, seed=seed, faulted=faulted, victim=victim
            )
            report.trials.append(trial)
            trial.expected = APPS[app].oracle(
                APPS[app].normalize({"size": spec.size, "seed": seed})
            )
            body = _request_body(spec, app, tenant, seed, faulted, victim)
            payload = submit(body)
            # admission can 429 a burst; the soak retries politely
            # rather than counting backpressure as a chaos failure
            retries = 0
            while "id" not in payload and retries < 50:
                time.sleep(float(payload.get("retry_after", 0.2)) or 0.2)
                payload = submit(body)
                retries += 1
            if "id" not in payload:
                trial.status = "rejected"
                trial.error = str(payload.get("error", ""))
                continue
            pending.append((trial, payload["id"]))
        for trial, job_id in pending:
            status = server.wait(job_id, timeout=120.0)
            trial.status = status["status"]
            trial.error = status.get("error", "")
            result = status.get("result") or {}
            if "score" in result:
                trial.score = result["score"]
                trial.recoveries = result.get("recoveries", 0)
                trial.wall_time = result.get("wall_time", 0.0)
            if verbose:
                print(trial.describe())

    try:
        if over_http:
            with serve_background(server) as base_url:
                _drive(lambda body: _submit_http(base_url, body))
        else:
            _drive(lambda body: server.submit(body)[1])
        report.restarts_served = server.pool.stats().restarts_served
    finally:
        if own_server:
            server.close()
    report.elapsed = time.monotonic() - start
    return report
