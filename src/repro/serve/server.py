"""The persistent DP job server: asyncio HTTP front, warm engine back.

``JobServer`` holds the four long-lived serving resources — the warm
:class:`~repro.serve.pool.PlacePool`, the per-tenant
:class:`~repro.serve.scheduler.AdmissionController`, the
:class:`~repro.serve.scheduler.WeightedFairPacer`, and the LRU
:class:`~repro.serve.cache.ResultCache` — and exposes them over a small
local HTTP/JSON API (stdlib only; no web framework):

==========================  ====================================================
``POST /jobs``              submit a job; 202 + job id (409-free: resubmits of
                            a cached key return 200 with the cached result)
``GET /jobs/{id}``          job status / result
``GET /jobs/{id}/trace``    Chrome-trace JSON of a ``"trace": true`` job,
                            with the causal summary in ``otherData``
``GET /metrics``            Prometheus text (server + pool + cache + tenants)
``GET /stats``              JSON stats (pool / cache / pacer / admission)
``GET /healthz``            liveness
``DELETE /cache``           invalidate every cached result
==========================  ====================================================

Request lifecycle (the "life of a request" doc walks this in detail):
parse → admission (429 + ``Retry-After`` on rate/in-flight/queue
saturation) → cache probe → executor thread → engine run with
``config.pace`` (weighted-fair gate) and ``config.place_pool`` (warm
places) → result cached and returned. Every stage records a span on the
server's :class:`~repro.core.trace.ExecutionTrace`, exportable as a
Chrome trace for the CI artifact.

Jobs execute in a thread pool because engine runs are blocking; the mp
engine's workers are separate processes, so the GIL only serializes the
thin master loops, not the DP compute.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.config import DPX10Config
from repro.core.trace import ExecutionTrace
from repro.errors import UnrecoverableError
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
    render_prometheus,
)
from repro.serve.api import BadRequest, JobRequest, parse_job_request, execute_job
from repro.serve.cache import ResultCache
from repro.serve.pool import PlacePool
from repro.serve.scheduler import (
    AdmissionController,
    TenantPolicy,
    WeightedFairPacer,
)
from repro.util.logging import get_logger

__all__ = ["JobServer", "serve_background"]

logger = get_logger("serve.server")

_MAX_BODY = 8 * 1024 * 1024


@dataclass
class Job:
    """One submitted job and everything the status endpoint reports."""

    id: str
    tenant: str
    request: JobRequest
    status: str = "queued"  # queued | running | done | failed
    cached: bool = False
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    pool_restarts: int = 0
    #: the run's ExecutionTrace when submitted with "trace": true
    trace: Optional[ExecutionTrace] = field(default=None, repr=False)
    trace_id: Optional[str] = None
    #: set when the job reaches a terminal state, so in-process waiters
    #: (bench, tests) don't pay poll-quantization latency
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "id": self.id,
            "tenant": self.tenant,
            "app": self.request.app,
            "status": self.status,
            "cached": self.cached,
            "submitted_at": self.submitted_at,
        }
        if self.started_at is not None:
            out["started_at"] = self.started_at
        if self.finished_at is not None:
            out["finished_at"] = self.finished_at
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.pool_restarts:
            out["pool_restarts"] = self.pool_restarts
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out


class JobServer:
    """The serving brain; transport-independent, fronted by asyncio HTTP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        *,
        pool_capacity: Optional[int] = None,
        prewarm: bool = True,
        cache_capacity: int = 128,
        default_policy: Optional[TenantPolicy] = None,
        per_tenant: Optional[Dict[str, TenantPolicy]] = None,
        max_queued: int = 32,
        executor_workers: int = 8,
        quantum_cells: float = 4096.0,
        allow_faults: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.allow_faults = allow_faults
        self.max_queued = max_queued
        self.pool = PlacePool(pool_capacity, prewarm=prewarm)
        self.admission = AdmissionController(default_policy, per_tenant)
        self.pacer = WeightedFairPacer(quantum_cells)
        self.cache = ResultCache(cache_capacity)
        self.registry = MetricsRegistry()
        self.trace = ExecutionTrace()
        self.jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._queued = 0
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="dpx10-job"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = False
        # -- instruments ----------------------------------------------------
        self._jobs_total = self.registry.counter(
            "dpx10_jobs_total",
            "job submissions by terminal disposition",
            ("tenant", "status"),
        )
        self._job_seconds = self.registry.histogram(
            "dpx10_job_seconds",
            "end-to-end job latency (admission to terminal state)",
            ("tenant",),
            buckets=DEFAULT_SECONDS_BUCKETS,
        )
        self._queue_depth = self.registry.gauge(
            "dpx10_job_queue_depth", "jobs admitted but not yet running"
        )
        self._in_flight = self.registry.gauge(
            "dpx10_jobs_in_flight",
            "admitted jobs per tenant (queued + running)",
            ("tenant",),
        )

    # -- job lifecycle ------------------------------------------------------------
    def submit(self, body: Any) -> Tuple[int, Dict[str, Any]]:
        """The whole admission pipeline; returns (http_status, payload).

        Transport-independent so tests can drive it without sockets.
        """
        try:
            req = parse_job_request(
                body,
                allow_faults=self.allow_faults,
                # a bare {app, params} must run on any server: only an
                # explicit nplaces can exceed the pool
                default_nplaces=min(4, self.pool.capacity),
            )
        except BadRequest as exc:
            return 400, {"error": str(exc)}
        if req.engine == "mp" and req.nplaces > self.pool.capacity:
            return 400, {
                "error": (
                    f"nplaces {req.nplaces} exceeds this server's place-pool "
                    f"capacity {self.pool.capacity}"
                )
            }
        tenant = req.tenant
        with self.trace.phase(f"admission:{tenant}", category="serve"):
            with self._jobs_lock:
                saturated = self._queued >= self.max_queued
            if saturated:
                self._jobs_total.labels(tenant, "rejected").inc()
                return 429, {
                    "error": "server queue saturated",
                    "retry_after": 1.0,
                }
            decision = self.admission.admit(tenant)
        if not decision.admitted:
            self._jobs_total.labels(tenant, "rejected").inc()
            return 429, {
                "error": f"admission denied ({decision.reason})",
                "reason": decision.reason,
                "retry_after": decision.retry_after,
            }
        self._jobs_total.labels(tenant, "submitted").inc()
        job = Job(id=uuid.uuid4().hex[:12], tenant=tenant, request=req)
        with self._jobs_lock:
            self.jobs[job.id] = job
        if req.use_cache:
            hit = self.cache.get(req.cache_key)
            if hit is not None:
                job.status = "done"
                job.cached = True
                job.result = hit
                job.finished_at = time.time()
                job.done_event.set()
                self.admission.release(tenant)
                self._jobs_total.labels(tenant, "cached").inc()
                self._job_seconds.labels(tenant).observe(
                    job.finished_at - job.submitted_at
                )
                return 200, job.to_dict()
        with self._jobs_lock:
            self._queued += 1
            self._queue_depth.set(self._queued)
        self._executor.submit(self._run_job, job)
        return 202, job.to_dict()

    def _run_job(self, job: Job) -> None:
        req = job.request
        tenant = job.tenant
        with self.trace.phase(f"queue:{job.id}", category="serve"):
            with self._jobs_lock:
                self._queued -= 1
                self._queue_depth.set(self._queued)
            job.status = "running"
            job.started_at = time.time()
        pace = self.pacer.register(
            job.id, self.admission.policy(tenant).weight
        )
        try:
            config = DPX10Config(
                engine=req.engine,
                nplaces=req.nplaces,
                tile_shape=req.tile_shape,
                autokernel=req.autokernel,
                trace=req.trace,
                pace=pace,
                # the warm pool serves the mp engine; in-process engines
                # have no processes to reuse
                place_pool=self.pool if req.engine == "mp" else None,
            )

            def _capture(report) -> None:
                if report.trace is not None:
                    job.trace = report.trace
                    job.trace_id = report.trace.trace_id

            with self.trace.phase(f"execute:{job.id}", category="serve"):
                result = execute_job(
                    req, config, on_report=_capture if req.trace else None
                )
            job.result = result
            job.status = "done"
            if req.use_cache:
                self.cache.put(req.cache_key, result)
            self._jobs_total.labels(tenant, "done").inc()
        except UnrecoverableError as exc:
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self._jobs_total.labels(tenant, "failed").inc()
        except Exception as exc:  # noqa: BLE001 - served errors, not crashes
            logger.exception("job %s crashed", job.id)
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self._jobs_total.labels(tenant, "failed").inc()
        finally:
            self.pacer.unregister(job.id)
            self.admission.release(tenant)
            job.finished_at = time.time()
            job.done_event.set()
            self._job_seconds.labels(tenant).observe(
                job.finished_at - job.submitted_at
            )

    def job_status(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._jobs_lock:
            job = self.jobs.get(job_id)
        return job.to_dict() if job else None

    def job_trace(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """The Chrome-trace document (with embedded causal summary) of a
        job submitted with ``"trace": true``; (http_status, payload)."""
        from repro.obs.causal import causal_summary
        from repro.obs.export import chrome_trace

        with self._jobs_lock:
            job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": "no such job"}
        if job.trace is None:
            return 404, {
                "error": (
                    "no trace captured; submit the job with \"trace\": true "
                    "and wait for it to finish"
                )
            }
        causal = causal_summary(job.trace) if job.trace.events else None
        return 200, chrome_trace(job.trace, causal=causal)

    def wait(self, job_id: str, timeout: float = 60.0) -> Dict[str, Any]:
        """Block until a job reaches a terminal state (test / CLI / bench)."""
        with self._jobs_lock:
            job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if not job.done_event.wait(timeout):
            raise TimeoutError(f"job {job_id} still {job.status}")
        return job.to_dict()

    # -- observability ------------------------------------------------------------
    def _refresh_gauges(self) -> None:
        """Pull-model instruments: refresh at scrape time."""
        for tenant, n in self.admission.snapshot().items():
            self._in_flight.labels(tenant).set(n)
        pool = self.pool.stats()
        self.registry.gauge(
            "dpx10_pool_workers_idle", "warm place processes waiting for a lease"
        ).set(pool.idle)
        self.registry.gauge(
            "dpx10_pool_workers_leased", "place processes leased to running jobs"
        ).set(pool.leased)
        self.registry.counter(
            "dpx10_pool_forks_total", "place processes forked by the pool"
        ).set(pool.forks)
        self.registry.counter(
            "dpx10_pool_leases_total", "pool leases granted"
        ).set(pool.leases)
        self.registry.counter(
            "dpx10_pool_restarts_total",
            "mid-run place restarts served from the pool",
        ).set(pool.restarts_served)
        self.registry.gauge(
            "dpx10_pool_segment_bytes",
            "shared-memory plane bytes owned by the pool",
        ).set(pool.segment_bytes_total)
        cache = self.cache.stats()
        self.registry.counter(
            "dpx10_result_cache_hits_total", "result cache hits"
        ).set(cache["hits"])
        self.registry.counter(
            "dpx10_result_cache_misses_total", "result cache misses"
        ).set(cache["misses"])
        self.registry.counter(
            "dpx10_result_cache_evictions_total", "LRU evictions"
        ).set(cache["evictions"])
        self.registry.gauge(
            "dpx10_result_cache_entries", "cached results currently held"
        ).set(cache["size"])
        self.registry.gauge(
            "dpx10_pacer_active_jobs", "jobs registered with the fair pacer"
        ).set(self.pacer.active_jobs())

    def metrics_text(self) -> str:
        self._refresh_gauges()
        return render_prometheus(self.registry.collect())

    def stats(self) -> Dict[str, Any]:
        with self._jobs_lock:
            by_status: Dict[str, int] = {}
            for job in self.jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "pool": self.pool.stats().to_dict(),
            "cache": self.cache.stats(),
            "pacer": self.pacer.snapshot(),
            "tenants": self.admission.snapshot(),
            "jobs": by_status,
            "queued": self._queued,
        }

    def export_trace(self, path: str) -> None:
        """Write the serving spans as a Chrome trace (CI artifact)."""
        from repro.obs.export import write_chrome_trace

        self._refresh_gauges()
        write_chrome_trace(path, self.trace, metrics=self.registry.collect())

    # -- HTTP transport -----------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            status, headers, payload = await self._respond(reader)
        except Exception as exc:  # noqa: BLE001 - protocol errors -> 500
            status, headers, payload = 500, {}, {"error": str(exc)}
        body = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload, indent=1).encode() + b"\n"
        )
        reason = {
            200: "OK",
            202: "Accepted",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            429: "Too Many Requests",
            500: "Internal Server Error",
        }.get(status, "OK")
        head = [f"HTTP/1.1 {status} {reason}"]
        base = {
            "Content-Type": headers.pop("Content-Type", "application/json"),
            "Content-Length": str(len(body)),
            "Connection": "close",
        }
        base.update(headers)
        head += [f"{k}: {v}" for k, v in base.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        try:
            await writer.drain()
        finally:
            writer.close()

    async def _respond(self, reader) -> Tuple[int, Dict[str, str], Any]:
        request_line = (await reader.readline()).decode("latin1").strip()
        if not request_line:
            return 400, {}, {"error": "empty request"}
        try:
            method, path, _version = request_line.split(" ", 2)
        except ValueError:
            return 400, {}, {"error": f"malformed request line {request_line!r}"}
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {}, {"error": "bad Content-Length"}
        if content_length > _MAX_BODY:
            return 400, {}, {"error": "request body too large"}
        raw = await reader.readexactly(content_length) if content_length else b""

        if method == "POST" and path == "/jobs":
            try:
                body = json.loads(raw or b"{}")
            except json.JSONDecodeError as exc:
                return 400, {}, {"error": f"invalid JSON: {exc}"}
            status, payload = self.submit(body)
            headers: Dict[str, str] = {}
            if status == 429:
                headers["Retry-After"] = str(
                    max(1, int(payload.get("retry_after", 1) + 0.999))
                )
            return status, headers, payload
        if method == "GET" and path.startswith("/jobs/") and path.endswith("/trace"):
            job_id = path[len("/jobs/"):-len("/trace")]
            status, payload = self.job_trace(job_id)
            return status, {}, payload
        if method == "GET" and path.startswith("/jobs/"):
            job_id, _, query = path[len("/jobs/"):].partition("?")
            wait_s = 0.0
            for part in query.split("&") if query else ():
                name, _, value = part.partition("=")
                if name == "wait":
                    try:
                        wait_s = min(120.0, float(value or 30.0))
                    except ValueError:
                        return 400, {}, {"error": f"bad wait value {value!r}"}
            if wait_s > 0:
                with self._jobs_lock:
                    job = self.jobs.get(job_id)
                if job is None:
                    return 404, {}, {"error": "no such job"}
                # long-poll: park the wait on a worker thread so the
                # event loop keeps serving other clients
                await asyncio.to_thread(job.done_event.wait, wait_s)
            payload = self.job_status(job_id)
            if payload is None:
                return 404, {}, {"error": "no such job"}
            return 200, {}, payload
        if method == "GET" and path == "/metrics":
            return (
                200,
                {"Content-Type": "text/plain; version=0.0.4"},
                self.metrics_text().encode(),
            )
        if method == "GET" and path == "/stats":
            return 200, {}, self.stats()
        if method == "GET" and path == "/healthz":
            return 200, {}, {"status": "ok"}
        if method == "DELETE" and path == "/cache":
            return 200, {}, {"cleared": self.cache.clear()}
        if path in ("/jobs", "/metrics", "/stats", "/healthz", "/cache"):
            return 405, {}, {"error": f"{method} not allowed on {path}"}
        return 404, {}, {"error": f"no route {path}"}

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # port=0 binds an ephemeral port; publish the real one
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("serving on http://%s:%d", self.host, self.port)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        self._executor.shutdown(wait=True)
        self.pool.close()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"


@contextmanager
def serve_background(server: JobServer):
    """Run the HTTP front in a daemon thread; yield the base URL.

    The engine side (executor threads, pool) lives in the caller's
    process either way — this only moves the asyncio accept loop off the
    caller's thread. Used by tests, the chaos soak and the CI smoke.
    """
    loop = asyncio.new_event_loop()
    started = threading.Event()

    async def _main() -> None:
        await server.start()
        started.set()
        assert server._server is not None
        async with server._server:
            try:
                await server._server.serve_forever()
            except asyncio.CancelledError:
                pass

    def _runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(_main())
        finally:
            loop.close()

    thread = threading.Thread(target=_runner, daemon=True, name="dpx10-serve")
    thread.start()
    if not started.wait(timeout=10.0):
        raise RuntimeError("job server failed to start within 10s")
    try:
        yield server.base_url
    finally:
        loop.call_soon_threadsafe(
            lambda: [t.cancel() for t in asyncio.all_tasks(loop)]
        )
        thread.join(timeout=10.0)
        server.close()
