"""The ledger's four workloads (see README.md for why these four).

Each workload object lives in one fresh child process started by
``run.py`` and goes through ``setup`` (inputs from the seed, plan build,
server start, one untimed warm-up whose *whole matrix* is compared with
``repro.native``), ``measure`` (the timed window) and ``close`` (the
clean-up checks that feed ``failed``). Every timed operation is checked
against ``repro.native`` and its baseline call runs interleaved, in the
same process, right before the operation it is the denominator of.

Two shapes:

* :class:`SolverWorkload` — one Smith-Waterman instance solved again and
  again under one ``DPX10Config``; three of them, differing in which
  executor / transport / kernel source the config routes through.
* :class:`ServeWorkload` — ``python -m repro serve`` as a child process,
  driven over real HTTP by two closed-loop clients.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.apps.mtp import make_mtp_weights
from repro.apps.smith_waterman import SWApp
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.core.shm import leaked_segments
from repro.patterns.diagonal import DiagonalDag

from procs import (
    descendants,
    own_cpu_seconds,
    own_peak_rss_mb,
    status_mb,
    survivors,
    tree_cpu_seconds,
)
from spans import SpanRecorder

__all__ = ["make_workload", "SolverWorkload", "ServeWorkload", "OFF"]

TILE = (64, 64)
#: places are processes on the mp engine: never more than the box has cores
NPLACES = 2

#: the recorder handed to the untraced half of every window
OFF = SpanRecorder(enabled=False)

#: the CPUs this child may use, read before anything is pinned
CPUS = sorted(os.sched_getaffinity(0))


def pin(cpu: int) -> None:
    """Confine this process, and whatever it forks from now on, to one CPU.

    The two vCPUs of this kind of box deliver two cores' throughput most
    of the time and one core's the rest, for minutes at a stretch (two
    spinning processes together do 2.0x or 1.0x the work of one;
    README.md, "Capacity"). Whatever runs two busy processes is 25%
    slower in the second state — SW 2048² on the mp engine 0.93 s or
    1.2 s — while anything confined to one CPU reads the same in both.
    So every workload is: the solver children pin themselves (and thereby
    the place processes they fork) to the first CPU; the serve child pins
    the server's tree to the last CPU and its own clients to the first.
    ``mp.unpinned_solve_s`` keeps the parallel number visible.
    """
    os.sched_setaffinity(0, {cpu})


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def upper_quartile(values: Sequence[float]) -> float:
    """The 75th percentile: the window statistic of the solver workloads.

    This host runs 20-25% *faster* in bursts of 1-10 s, and a 20 s window
    of ~1.5 s solves can be half inside one: its median then lands in
    either mode (A/A set 3, ``sw_vertex_default_256``: run medians of
    1.17 s and 1.50 s, spread 20%). The upper quartile stays in the
    normal mode until three quarters of a window are burst (same samples:
    spread 5.3%), and disagrees with the median by ~2% otherwise.
    """
    return float(np.percentile(values, 75))


def dna(rng: np.random.Generator, n: int) -> str:
    return "".join("ACGT"[k] for k in rng.integers(0, 4, size=n))


def workload_rng(seed: int, name: str) -> np.random.Generator:
    """One stream per (seed, workload): the same seed gives the same inputs."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def cleanup_failures(recorded_pids: Sequence[int] = ()) -> List[str]:
    """What a workload left behind after a clean stop; empty when tidy."""
    problems: List[str] = []
    strays = survivors(sorted(set(descendants(os.getpid())) | set(recorded_pids)), 2.0)
    if strays:
        problems.append(f"surviving child processes: {strays}")
    leaked = leaked_segments()
    if leaked:
        problems.append(f"leaked /dev/shm segments: {leaked}")
    return problems


# -- solver workloads -------------------------------------------------------------
@dataclass
class SolveSample:
    wall_s: float
    cpu_s: float
    native_s: float
    traced: bool
    ok: bool


class SolverWorkload:
    """Smith-Waterman ``size``² solved repeatedly under one config."""

    def __init__(self, name: str, size: int, quick_size: int, config: Dict[str, Any]):
        self.name = name
        self.size = size
        self.quick_size = quick_size
        self.config = config
        self.errors: List[str] = []
        self.last_report = None

    # -- lifecycle ----------------------------------------------------------------
    def setup(self, seed: int, quick: bool) -> None:
        pin(CPUS[0])
        self.n = self.quick_size if quick else self.size
        rng = workload_rng(seed, self.name)
        self.a, self.b = dna(rng, self.n), dna(rng, self.n)
        self.cells = (self.n + 1) ** 2
        # warm-up: untimed, and the one solve whose full matrix is compared
        app, dag, _report = self.solve()
        want = native.sw_native(self.a, self.b)
        got = dag.to_array(fill=-1, dtype=np.int64)
        self.score = int(want.max())
        self.alignment = app.alignment
        self.attempted = 1
        self.failed = 0
        if not (
            np.array_equal(got, want)
            and app.best_score == self.score
            and self._alignment_scores(app.alignment, self.score)
        ):
            self.failed += 1
            self.errors.append("warm-up solve differs from repro.native.sw_native")

    def close(self) -> List[str]:
        return cleanup_failures()

    # -- one solve ----------------------------------------------------------------
    def solve(self, fault_plans=(), **overrides):
        """One framework run on this workload's instance; overrides are
        how the ladder in layers.py walks neighbouring configurations."""
        cfg = DPX10Config(**{**self.config, **overrides})
        app = SWApp(self.a, self.b)
        dag = DiagonalDag(self.n + 1, self.n + 1)
        report = DPX10Runtime(app, dag, cfg, fault_plans=fault_plans).run()
        self.last_report = report
        return app, dag, report

    def prefix(self, n: int, config: Dict[str, Any]) -> "SolverWorkload":
        """A sibling instance on the first ``n`` characters of each string,
        under ``config`` — the ladder's smaller rungs."""
        sub = SolverWorkload(f"{self.name}[:{n}]", n, n, config)
        sub.n, sub.a, sub.b = n, self.a[:n], self.b[:n]
        sub.score = int(native.sw_native(sub.a, sub.b).max())
        return sub

    def _alignment_scores(self, alignment: Optional[Tuple[str, str]], score: int) -> bool:
        """Native has no traceback: re-score the alignment independently."""
        if alignment is None:
            return False
        top, bottom = alignment
        if len(top) != len(bottom):
            return False
        if top.replace("-", "") not in self.a or bottom.replace("-", "") not in self.b:
            return False
        total = 0
        for x, y in zip(top, bottom):
            if x == "-" or y == "-":
                total += SWApp.GAP_PENALTY
            else:
                total += SWApp.MATCH_SCORE if x == y else SWApp.DISMATCH_SCORE
        return total == score

    def timed_solve(self, rec: SpanRecorder, solve_id: int) -> SolveSample:
        with rec.span("bench.solve", solve_id):
            with rec.span("native.sw_native"):
                t0 = time.perf_counter()
                want = native.sw_native(self.a, self.b)
                native_s = time.perf_counter() - t0
            gc.collect()
            ok, app = False, None
            with rec.span(f"{self.layer}.solve"):
                cpu0 = own_cpu_seconds()
                t0 = time.perf_counter()
                try:
                    app, _dag, _report = self.solve()
                    ok = True
                except Exception as exc:  # noqa: BLE001 - counted, not fatal
                    self.errors.append(f"solve {solve_id}: {type(exc).__name__}: {exc}")
                wall_s = time.perf_counter() - t0
                cpu_s = own_cpu_seconds() - cpu0
            with rec.span("bench.check"):
                if ok and (
                    app.best_score != int(want.max())
                    or app.alignment != self.alignment
                ):
                    ok = False
                    self.errors.append(
                        f"solve {solve_id}: score {app.best_score} / alignment "
                        f"differ from native ({int(want.max())})"
                    )
        self.attempted += 1
        if not ok:
            self.failed += 1
        return SolveSample(wall_s, cpu_s, native_s, rec.enabled, ok)

    @property
    def layer(self) -> str:
        """The module a solve enters first — names the solve's span."""
        if self.config.get("engine") == "mp":
            return "mp"
        return "tiling" if self.config.get("tile_shape") else "worker"

    # -- the timed window ---------------------------------------------------------
    def measure(
        self, seconds: float, spans: Optional[SpanRecorder], quick: bool
    ) -> Dict[str, Any]:
        """Solve until ``seconds`` are used up; no sleeps between solves.

        With ``spans`` the solves alternate traced / untraced (an even
        count), which is what ``bench.trace_overhead_x`` divides.
        """
        min_solves = 2 if quick else 4
        samples: List[SolveSample] = []
        start = time.perf_counter()
        while True:
            k = len(samples)
            rec = spans if spans is not None and k % 2 == 0 else OFF
            samples.append(self.timed_solve(rec, k))
            k += 1
            elapsed = time.perf_counter() - start
            whole = spans is None or k % 2 == 0
            if k >= min_solves and whole and elapsed + elapsed / k > seconds:
                return {"samples": samples}

    def end_to_end(self, window: Dict[str, Any]) -> Dict[str, float]:
        plain = [s for s in window["samples"] if not s.traced]
        solve_s = upper_quartile([s.wall_s for s in plain])
        native_s = upper_quartile([s.native_s for s in plain])
        return {
            "solve_s": solve_s,
            "overhead_x": solve_s / native_s,
            "cpu_s": upper_quartile([s.cpu_s for s in plain]),
            "peak_rss_mb": own_peak_rss_mb(),
        }


# -- the serving workload -----------------------------------------------------------
SERVE_APPS = ("sw", "lcs", "edit", "mtp")
SERVE_SIZES = (128, 192, 256)
SERVE_QUICK_SIZES = (32, 48, 64)
SERVE_CLIENTS = 2
#: the warm-up: one fresh job of every (app, size) type
SERVE_WARMUP_JOBS = len(SERVE_APPS) * len(SERVE_SIZES)
#: share of jobs that repeat one of the previous REPEAT_WINDOW jobs exactly
REPEAT_SHARE = 0.25
REPEAT_WINDOW = 64
#: turns the traced window's seconds into its fixed job count (the box
#: serves ~40 jobs/s; being off only makes that window shorter or longer)
TRACED_JOBS_PER_SECOND = 40
#: client seconds between two native-timing passes of the window
SEGMENT_S = 1.0
#: admission lifted: rate, burst, max-in-flight far above what 2 clients send
LIFTED_TENANT = "bench=1000000:1000000:64:1"


@dataclass
class Job:
    index: int
    body: Dict[str, Any]
    #: index of the earlier job this one repeats exactly (a cache hit)
    repeat_of: Optional[int]
    #: index of the first job with this body (shares its native timing)
    origin: int


@dataclass
class JobSample:
    index: int
    latency_s: float
    cached: bool
    traced: bool
    score: Optional[int]
    error: Optional[str]
    #: seconds of the job's native sweep (of the job it repeats, for a hit)
    native_s: float = 0.0


def job_body(app: str, params: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "tenant": "bench",
        "app": app,
        "params": params,
        "engine": "mp",
        "nplaces": NPLACES,
        "tile_shape": list(TILE),
        "autokernel": True,
    }


def make_jobs(rng: np.random.Generator, count: int, sizes: Sequence[int]) -> List[Job]:
    """A balanced app x size mix; REPEAT_SHARE of jobs repeat a recent one.

    The list is stratified, not drawn job by job: the warm-up is one fresh
    job of each of the 12 (app, size) types, and every later block of 16
    jobs holds each type once fresh plus 4 repeats, in an order the seed
    picks; the repeats' own types go round the 12 as well. The seed picks
    the instances and the order, never the proportions. Drawn job by
    job, the share of ``mtp`` jobs (60x native; the rest 8-14x) moved
    ``overhead_x`` by a 5% spread between seeds before the host had any
    say (README.md, "How a run is made").
    """
    types = [(app, int(size)) for app in SERVE_APPS for size in sizes]
    fresh_per_block = len(types)
    repeats_per_block = round(fresh_per_block * REPEAT_SHARE / (1 - REPEAT_SHARE))
    jobs: List[Job] = []
    type_of: List[Tuple[str, int]] = []
    repeat_types: List[Tuple[str, int]] = []

    def fresh(kind: Tuple[str, int]) -> None:
        app, size = kind
        if app == "mtp":
            # the catalogue only takes synthetic street grids: the
            # benchmark picks the instance seed, the oracle rebuilds it
            params: Dict[str, Any] = {"size": size, "seed": int(rng.integers(2**31))}
        else:
            params = {"a": dna(rng, size - 1), "b": dna(rng, size - 1)}
        jobs.append(Job(len(jobs), job_body(app, params), None, len(jobs)))
        type_of.append(kind)

    def repeat() -> None:
        if not repeat_types:
            repeat_types.extend(types[k] for k in rng.permutation(len(types)))
        kind = repeat_types.pop()
        k = len(jobs)
        recent = [o for o in range(max(0, k - REPEAT_WINDOW), k) if type_of[o] == kind]
        o = recent[int(rng.integers(len(recent)))]
        jobs.append(Job(k, jobs[o].body, o, jobs[o].origin))
        type_of.append(kind)

    for k in rng.permutation(len(types)):
        fresh(types[k])
    assert len(jobs) == SERVE_WARMUP_JOBS
    while len(jobs) < count:
        slots = list(types) + [None] * repeats_per_block
        for k in rng.permutation(len(slots)):
            if slots[k] is None:
                repeat()
            else:
                fresh(slots[k])
    return jobs[:count]


def native_job(body: Dict[str, Any]) -> Tuple[int, float]:
    """``(score, seconds)`` of the hand-written sweep for one job body."""
    app, p = body["app"], body["params"]
    t0 = time.perf_counter()
    if app == "sw":
        score = native.sw_native(p["a"], p["b"]).max()
    elif app == "lcs":
        score = native.lcs_native(p["a"], p["b"])[-1, -1]
    elif app == "edit":
        score = native.edit_distance_native(p["a"], p["b"])[-1, -1]
    else:
        w_down, w_right = make_mtp_weights(p["size"], p["size"], seed=p["seed"])
        score = native.mtp_native(w_down, w_right)[-1, -1]
    return int(score), time.perf_counter() - t0


class HttpServerProcess:
    """``python -m repro serve`` as a child process on an ephemeral port."""

    def __init__(self, log_path: str, cpu: int) -> None:
        self._log = open(log_path, "ab")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        mine = os.sched_getaffinity(0)
        pin(cpu)  # inherited by the server and every place it forks
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0",
                    "--pool-capacity", str(NPLACES),
                    "--tenant", LIFTED_TENANT,
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=self._log,
            )
        finally:
            os.sched_setaffinity(0, mine)
        line = self.proc.stdout.readline().decode()
        found = re.search(r"listening on http://([\d.]+):(\d+)", line)
        if not found:
            self.stop(signal.SIGKILL)
            raise RuntimeError(f"job server did not start: {line!r}")
        self.host, self.port = found.group(1), int(found.group(2))
        self.pid = self.proc.pid

    def request(self, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60.0)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def run_job(
        self, body: Dict[str, Any], rec: SpanRecorder = OFF
    ) -> Tuple[int, Dict[str, Any]]:
        """POST, then long-poll to a terminal state: one client-seen job."""
        with rec.span("serve.post"):
            status, doc = self.request("POST", "/jobs", body)
        if status == 202:
            with rec.span("serve.wait"):
                status, doc = self.request("GET", f"/jobs/{doc['id']}?wait=60")
        return status, doc

    def tree(self) -> List[int]:
        return descendants(self.pid)

    def stop(self, sig: int) -> Optional[int]:
        """Signal, wait, close pipes; the exit code (``None`` if killed late).

        ``wait`` and not ``communicate``: orphaned place workers inherit
        the stdout pipe, so reading to EOF would block on *them*.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            code: Optional[int] = self.proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = None
        self.proc.stdout.close()
        self._log.close()
        return code


class ServeWorkload:
    """Two closed-loop HTTP clients against one warm 2-place server."""

    name = "serve_http_small"

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.server: Optional[HttpServerProcess] = None

    # -- lifecycle ----------------------------------------------------------------
    def setup(self, seed: int, quick: bool) -> None:
        pin(CPUS[0])
        rng = workload_rng(seed, self.name)
        sizes = SERVE_QUICK_SIZES if quick else SERVE_SIZES
        # far more jobs than any window consumes; the window stops by the clock
        self.jobs = make_jobs(rng, 48 if quick else 6000, sizes)
        self.next_job = 0
        self.natives: Dict[int, Tuple[int, float]] = {}
        self.server = HttpServerProcess(
            os.path.join(self.out_dir, "server.log"), CPUS[-1]
        )
        warm = [self._client_job(self.jobs[k], OFF) for k in range(SERVE_WARMUP_JOBS)]
        self.next_job = SERVE_WARMUP_JOBS
        self.verify(warm)
        self.rss_after_warmup_mb = status_mb(self.server.pid, "VmRSS")

    def close(self) -> List[str]:
        if self.server is None:
            return cleanup_failures()
        tree = self.server.tree()
        code = self.server.stop(signal.SIGINT)
        problems = cleanup_failures(tree)
        if code != 0:
            problems.append(f"server exit code {code} after SIGINT")
        return problems

    # -- one job --------------------------------------------------------------------
    def _client_job(self, job: Job, rec: SpanRecorder) -> JobSample:
        score = error = None
        cached = False
        with rec.span("serve.job", job.index):
            t0 = time.perf_counter()
            try:
                status, doc = self.server.run_job(job.body, rec)
                if status == 429:
                    self.rejected += 1
                if status != 200 or doc.get("status") != "done":
                    error = f"HTTP {status}, status {doc.get('status')!r}: {doc.get('error')}"
                else:
                    score = int(doc["result"]["score"])
                    cached = bool(doc.get("cached"))
            except (OSError, ValueError, KeyError, http.client.HTTPException) as exc:
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        return JobSample(job.index, latency, cached, rec.enabled, score, error)

    def native_of(self, index: int) -> Tuple[int, float]:
        """``(score, seconds)`` of job ``index``'s native sweep, timed once
        per distinct body."""
        origin = self.jobs[index].origin
        if origin not in self.natives:
            self.natives[origin] = native_job(self.jobs[origin].body)
        return self.natives[origin]

    def verify(self, samples: List[JobSample]) -> None:
        """Score every job of a finished window against its native sweep."""
        for s in samples:
            job = self.jobs[s.index]
            self.attempted += 1
            want, s.native_s = self.native_of(s.index)
            if s.error is None and s.score != want:
                s.error = f"score {s.score} != native {want}"
            if s.error is None and s.cached != (job.repeat_of is not None):
                s.error = f"cached={s.cached} but repeat_of={job.repeat_of}"
            if s.error is not None:
                self.failed += 1
                self.errors.append(f"job {s.index} ({job.body['app']}): {s.error}")

    # -- the timed window ---------------------------------------------------------
    def measure(
        self, seconds: float, spans: Optional[SpanRecorder], quick: bool
    ) -> Dict[str, Any]:
        """Closed loop: each client sends its next job when the last returned.

        The window runs in segments of ``SEGMENT_S``; after each, the
        segment's jobs are scored and their native sweeps timed, so that
        numerator and denominator of ``overhead_x`` see the same minutes
        of the host (timed in one pass after the window, the natives
        alone moved the ratio by +-25%). Only client time counts towards
        ``seconds``. The untraced window stops by that clock; the traced
        one (``spans`` given; every second job traced) runs an exact job
        count instead, so ``serve.cache_hit_ratio`` and the pool counters
        repeat exactly.
        """
        first = self.next_job
        limit = len(self.jobs)
        if spans is not None:
            limit = first + (24 if quick else int(seconds * TRACED_JOBS_PER_SECOND))
            seconds = float("inf")
        done = {k: threading.Event() for k in range(first - REPEAT_WINDOW, limit)}
        for k in range(first - REPEAT_WINDOW, first):
            done[k].set()
        lock = threading.Lock()
        samples: List[JobSample] = []
        cpu0 = tree_cpu_seconds(self.server.pid)
        window_s = 0.0

        def client(deadline: float) -> None:
            while True:
                with lock:
                    k = self.next_job
                    if k >= limit or time.perf_counter() >= deadline:
                        return
                    self.next_job = k + 1
                job = self.jobs[k]
                if job.repeat_of is not None and job.repeat_of in done:
                    # a repeat is only a cache hit once its original has
                    # landed; the other client may still be running it
                    done[job.repeat_of].wait(120.0)
                rec = spans if spans is not None and k % 2 == 0 else OFF
                sample = self._client_job(job, rec)
                with lock:
                    samples.append(sample)
                done[k].set()

        while self.next_job < limit and window_s < seconds:
            scored = len(samples)
            start = time.perf_counter()
            deadline = start + min(SEGMENT_S, seconds - window_s)
            threads = [
                threading.Thread(target=client, args=(deadline,), name=f"client-{c}")
                for c in range(SERVE_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            window_s += time.perf_counter() - start
            self.verify(sorted(samples[scored:], key=lambda s: s.index))
        samples.sort(key=lambda s: s.index)
        return {
            "samples": samples,
            "window_s": window_s,
            "server_cpu_s": tree_cpu_seconds(self.server.pid) - cpu0,
            "server_rss_mb": status_mb(self.server.pid, "VmRSS"),
        }

    def end_to_end(self, window: Dict[str, Any]) -> Dict[str, float]:
        samples: List[JobSample] = window["samples"]
        plain = [s for s in samples if not s.traced]
        native_total = sum(self.native_of(s.index)[1] for s in plain)
        tree = [self.server.pid] + self.server.tree()
        return {
            "solve_s": median([s.latency_s for s in plain]),
            "overhead_x": sum(s.latency_s for s in plain) / native_total,
            "cpu_s": window["server_cpu_s"] / len(samples),
            "peak_rss_mb": max(status_mb(p, "VmHWM") for p in tree),
        }


#: name -> (size, quick size, DPX10Config kwargs) of the three solver workloads
SOLVER_WORKLOADS: Dict[str, Tuple[int, int, Dict[str, Any]]] = {
    "sw_tiled_inline_1024": (
        1024,
        128,
        {"engine": "inline", "nplaces": NPLACES, "tile_shape": TILE},
    ),
    "sw_tiled_mp_2048": (
        2048,
        256,
        {
            "engine": "mp",
            "nplaces": NPLACES,
            "shm": True,
            "tile_shape": TILE,
            "autokernel": True,
        },
    ),
    # what a user gets by default today: a bare DPX10Config()
    "sw_vertex_default_256": (256, 48, {}),
}


def make_workload(name: str, out_dir: str):
    """The workload ``BENCHMARK.json`` calls ``name``."""
    if name == ServeWorkload.name:
        return ServeWorkload(out_dir)
    return SolverWorkload(name, *SOLVER_WORKLOADS[name])
