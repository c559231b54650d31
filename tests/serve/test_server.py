"""JobServer behaviour: lifecycle, backpressure, caching, HTTP transport."""

import json
import os
import urllib.error
import urllib.request

import pytest

from repro.serve.scheduler import TenantPolicy
from repro.serve.server import JobServer, serve_background


def _job(app="sw", size=16, seed=1, **over):
    body = {"app": app, "params": {"size": size, "seed": seed}, "engine": "inline"}
    body.update(over)
    return body


@pytest.fixture
def server():
    srv = JobServer(port=0, pool_capacity=2, prewarm=False, max_queued=8)
    yield srv
    srv.close()


class TestLifecycle:
    def test_submit_runs_to_done(self, server):
        status, payload = server.submit(_job())
        assert status == 202
        final = server.wait(payload["id"])
        assert final["status"] == "done"
        assert final["result"]["score"] > 0
        assert final["tenant"] == "default"

    def test_bad_request_is_400(self, server):
        status, payload = server.submit({"app": "nope"})
        assert status == 400 and "error" in payload

    def test_unknown_key_is_400_naming_it(self, server):
        status, payload = server.submit(_job(use_cache=False))
        assert status == 400 and "use_cache" in payload["error"]

    def test_unknown_job_is_none(self, server):
        assert server.job_status("missing") is None

    def test_failed_job_reports_error(self, server):
        # faults without pool capacity for replacement: place 0 kill on
        # a 1-place inline run is unrecoverable and must surface as a
        # failed job, not a crashed server
        srv = JobServer(
            port=0, pool_capacity=2, prewarm=False, allow_faults=True
        )
        try:
            status, payload = srv.submit(
                _job(engine="inline", nplaces=1,
                     faults=[{"place": 0, "at_fraction": 0.2}], cache=False)
            )
            assert status == 202
            final = srv.wait(payload["id"])
            assert final["status"] == "failed"
            assert final["error"]
        finally:
            srv.close()


class TestPoolRestarts:
    def test_a_replaced_place_shows_on_the_job(self):
        # place 1 is SIGKILLed mid-run; a pooled spare takes its id, and
        # the job document says so
        srv = JobServer(port=0, pool_capacity=3, prewarm=False, allow_faults=True)
        try:
            status, payload = srv.submit(
                _job(engine="mp", nplaces=2, size=48, tile_shape=[16, 16],
                     faults=[{"place": 1, "at_fraction": 0.5}], cache=False)
            )
            assert status == 202
            final = srv.wait(payload["id"], timeout=60)
            assert final["status"] == "done", final
            assert final["pool_restarts"] == 1
            assert final["result"]["recoveries"] == 1
            clean = srv.wait(srv.submit(_job(size=48, cache=False))[1]["id"], timeout=60)
            assert final["result"]["score"] == clean["result"]["score"]
            assert "pool_restarts" not in clean
        finally:
            srv.close()


class TestBackpressure:
    def test_in_flight_cap_gives_429(self, server):
        # occupy every slot by hand: deterministic, no timing games
        policy = server.admission.policy("t")
        for _ in range(policy.max_in_flight):
            assert server.admission.admit("t").admitted
        status, payload = server.submit(_job(tenant="t"))
        assert status == 429
        assert payload["reason"] == "in_flight"
        assert payload["retry_after"] > 0

    def test_rate_limit_gives_429(self):
        srv = JobServer(
            port=0,
            pool_capacity=2,
            prewarm=False,
            default_policy=TenantPolicy(rate=0.001, burst=1, max_in_flight=9),
        )
        try:
            status, payload = srv.submit(_job())
            assert status == 202
            srv.wait(payload["id"])
            status, payload = srv.submit(_job(seed=2))
            assert status == 429 and payload["reason"] == "rate"
        finally:
            srv.close()

    def test_queue_saturation_gives_429(self):
        srv = JobServer(port=0, pool_capacity=2, prewarm=False, max_queued=0)
        try:
            status, payload = srv.submit(_job())
            assert status == 429
            assert "saturated" in payload["error"]
        finally:
            srv.close()

    def test_rejections_counted_per_tenant(self, server):
        for _ in range(server.admission.policy("t").max_in_flight):
            server.admission.admit("t")
        server.submit(_job(tenant="t"))
        text = server.metrics_text()
        assert 'dpx10_jobs_total{tenant="t",status="rejected"} 1' in text


class TestCaching:
    def test_resubmit_served_from_cache(self, server):
        status, payload = server.submit(_job())
        server.wait(payload["id"])
        status2, payload2 = server.submit(_job())
        assert status2 == 200
        assert payload2["cached"] is True
        assert payload2["result"]["score"] == server.job_status(payload["id"])[
            "result"
        ]["score"]

    def test_cache_opt_out_recomputes(self, server):
        status, payload = server.submit(_job(cache=False))
        server.wait(payload["id"])
        status2, payload2 = server.submit(_job(cache=False))
        assert status2 == 202  # ran again, not served from cache
        assert server.wait(payload2["id"])["cached"] is False

    def test_cached_jobs_do_not_hold_admission_slots(self, server):
        status, payload = server.submit(_job())
        server.wait(payload["id"])
        for i in range(server.admission.policy("default").max_in_flight + 2):
            status, payload = server.submit(_job())
            assert status == 200  # cache hits release their slot instantly


class TestJobRetention:
    def test_oldest_finished_jobs_are_evicted_first_and_answer_404(
        self, server, monkeypatch
    ):
        import threading

        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "MAX_FINISHED_JOBS", 3)
        # a job held running: never evicted, however many finish meanwhile
        gate = threading.Event()
        real = server_mod.execute_job

        def held(req, config, on_report=None):
            gate.wait(30)
            return real(req, config, on_report)

        monkeypatch.setattr(server_mod, "execute_job", held)
        _, first = server.submit(_job(seed=7))  # held: no cache entry yet
        server.cache.put(
            server_mod.parse_job_request(_job()).cache_key, {"score": 1}
        )
        finished = []
        for _ in range(5):  # cached repeats finish inside submit
            status, payload = server.submit(_job())
            assert status == 200
            finished.append(payload["id"])
        assert server.job_status(first["id"])["status"] == "running"
        assert [server.job_status(j) is None for j in finished] == [True] * 2 + [False] * 3
        assert server.job_trace(finished[0])[0] == 404
        gate.set()
        assert server.wait(first["id"])["status"] == "done"
        # finishing the held job evicts the oldest cached one left
        assert set(server.jobs) == {first["id"], *finished[3:]}

    def test_retired_jobs_share_one_set_event_and_waits_return_at_once(self):
        import time

        import repro.serve.server as server_mod

        srv = JobServer(port=0, pool_capacity=2, prewarm=False)
        with serve_background(srv) as base:
            _, ran = srv.submit(_job())
            srv.wait(ran["id"])
            _, cached = srv.submit(_job())  # a repeat: finishes inside submit
            assert cached["cached"]
            for job_id in (ran["id"], cached["id"]):
                # no Event of its own kept per retained job
                assert srv.jobs[job_id].done_event is server_mod._DONE
                start = time.monotonic()
                assert srv.wait(job_id, timeout=30)["status"] == "done"
                with urllib.request.urlopen(f"{base}/jobs/{job_id}?wait=30") as resp:
                    assert json.loads(resp.read())["status"] == "done"
                assert time.monotonic() - start < 5
        assert server_mod._DONE.is_set()


    def test_the_server_trace_keeps_at_most_max_server_spans(self, monkeypatch):
        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "MAX_SERVER_SPANS", 1000)
        policy = TenantPolicy(rate=1e9, burst=1e9, max_in_flight=10**6)
        srv = JobServer(port=0, pool_capacity=2, prewarm=False, default_policy=policy)
        try:
            srv.cache.put(server_mod.parse_job_request(_job()).cache_key, {"score": 1})
            for _ in range(5000):  # cached: each finishes inside submit
                assert srv.submit(_job())[0] == 200
            spans = srv.trace.spans
            assert len(spans) == 1000  # the oldest dropped first
            assert spans[-1].name == "admission:default"
            assert spans[0].start > 0 and spans[0].start <= spans[-1].start
        finally:
            srv.close()


class TestHTTP:
    def _post(self, base, body):
        req = urllib.request.Request(
            base + "/jobs",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())

    def test_full_roundtrip(self):
        srv = JobServer(port=0, pool_capacity=2, prewarm=False)
        with serve_background(srv) as base:
            with urllib.request.urlopen(base + "/healthz") as resp:
                assert json.loads(resp.read()) == {"status": "ok"}
            status, payload = self._post(base, _job())
            assert status == 202
            final = srv.wait(payload["id"])
            with urllib.request.urlopen(base + "/jobs/" + payload["id"]) as resp:
                assert json.loads(resp.read())["status"] == final["status"]
            with urllib.request.urlopen(base + "/metrics") as resp:
                text = resp.read().decode()
                assert resp.headers["Content-Type"].startswith("text/plain")
            assert "dpx10_jobs_total" in text
            assert "dpx10_pool_workers_idle" in text
            with urllib.request.urlopen(base + "/stats") as resp:
                stats = json.loads(resp.read())
            assert stats["jobs"].get("done", 0) >= 1
            clear = urllib.request.Request(base + "/cache", method="DELETE")
            with urllib.request.urlopen(clear) as resp:
                assert json.loads(resp.read())["cleared"] >= 1

    def test_http_error_statuses(self):
        srv = JobServer(port=0, pool_capacity=2, prewarm=False, max_queued=0)
        with serve_background(srv) as base:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(base + "/jobs/zzz")
            assert exc.value.status == 404
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(
                    urllib.request.Request(base + "/metrics", method="POST")
                )
            assert exc.value.status == 405
            with pytest.raises(urllib.error.HTTPError) as exc:
                self._post(base, _job())  # max_queued=0: always saturated
            assert exc.value.status == 429
            assert int(exc.value.headers["Retry-After"]) >= 1
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(
                    urllib.request.Request(
                        base + "/jobs", data=b"{not json", method="POST"
                    )
                )
            assert exc.value.status == 400


class TestSigterm:
    """``python -m repro serve`` must shut down on SIGTERM and on SIGINT,
    including a SIGINT it was started ignoring (a background shell job),
    and leave no place process or segment behind."""

    @staticmethod
    def _descendants(pid):
        """Every live descendant pid of ``pid`` (Linux /proc walk)."""
        import glob

        found, frontier = [], [pid]
        while frontier:
            parent = frontier.pop()
            for path in glob.glob(f"/proc/{parent}/task/*/children"):
                try:
                    with open(path) as fh:
                        kids = [int(k) for k in fh.read().split()]
                except OSError:
                    continue  # the task exited between glob and open
                found += kids
                frontier += kids
        return found

    @staticmethod
    def _alive(pid):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                # a zombie is dead for our purposes: it holds no resources
                return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
        except OSError:
            return False

    def test_sigterm_after_jobs_leaves_nothing_behind(self):
        import signal

        self._signal_after_jobs_leaves_nothing_behind(signal.SIGTERM)

    def test_sigint_after_jobs_leaves_nothing_behind_when_started_ignoring_it(self):
        import signal

        def ignore_sigint():
            signal.signal(signal.SIGINT, signal.SIG_IGN)

        self._signal_after_jobs_leaves_nothing_behind(
            signal.SIGINT, preexec_fn=ignore_sigint
        )

    def _signal_after_jobs_leaves_nothing_behind(self, sig, preexec_fn=None):
        import os
        import re
        import signal
        import subprocess
        import sys
        import time

        from repro.core.shm import SEGMENT_PREFIX, leaked_segments, shm_supported

        if not (shm_supported() and os.path.isdir("/proc/self/task")):
            pytest.skip("needs /dev/shm and a Linux /proc")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--pool-capacity", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            preexec_fn=preexec_fn,
        )
        children = []
        prefix = f"{SEGMENT_PREFIX}{proc.pid}-"
        try:
            line = proc.stdout.readline().decode()
            found = re.search(r"listening on (http://[\d.]+:\d+)", line)
            assert found, f"job server did not start: {line!r}"
            base = found.group(1)
            for seed in (1, 2):
                # mp jobs on shm planes: pool workers and pooled segments
                body = _job(
                    engine="mp", nplaces=2, size=48, seed=seed,
                    tile_shape=[16, 16], cache=False,
                )
                req = urllib.request.Request(
                    base + "/jobs", data=json.dumps(body).encode(), method="POST"
                )
                doc = json.load(urllib.request.urlopen(req, timeout=30))
                final = json.load(
                    urllib.request.urlopen(
                        f"{base}/jobs/{doc['id']}?wait=60", timeout=90
                    )
                )
                assert final["status"] == "done", final
            children = self._descendants(proc.pid)
            assert children, "the server should hold warm pool workers"
            assert any(s.startswith(prefix) for s in leaked_segments())
            proc.send_signal(sig)
            assert proc.wait(timeout=30) == 0
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                self._alive(p) for p in children
            ):
                time.sleep(0.05)
            assert [p for p in children if self._alive(p)] == []
            assert [s for s in leaked_segments() if s.startswith(prefix)] == []
        finally:
            # a failing run must not leave its orphans to the next test
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in children:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for seg in leaked_segments():
                if seg.startswith(prefix):
                    try:
                        os.unlink(os.path.join("/dev/shm", seg))
                    except FileNotFoundError:
                        pass


class TestBareBody:
    """``{app, params}`` is a complete request on any server: the place
    count defaults to what the pool can lease and the runtime plans the
    tiles and the kernel, as under a bare ``DPX10Config()``."""

    BODY = {"app": "sw", "params": {"size": 150, "seed": 4}}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the spy reaches places by fork")
    def test_minimal_body_runs_planned_on_a_two_place_server(
        self, server, tmp_path, monkeypatch
    ):
        from repro.core import plane as plane_mod
        from repro.serve.api import APPS, parse_job_request

        # mp places are forked at lease time (prewarm=False), after the
        # patch: each run_tiles call appends its kernel's type to the log
        log = tmp_path / "kernels.log"
        real = plane_mod.run_tiles

        def logging(plane, tiled, app, kernel, *rest):
            with open(log, "a") as fh:
                fh.write(f"{type(kernel).__name__} {tiled.grid.tile_h}\n")
            return real(plane, tiled, app, kernel, *rest)

        monkeypatch.setattr(plane_mod, "run_tiles", logging)
        status, payload = server.submit(self.BODY)
        assert status == 202
        final = server.wait(payload["id"])
        assert final["status"] == "done", final
        result = final["result"]
        params = parse_job_request(self.BODY).params
        assert result["score"] == APPS["sw"].oracle(params)
        assert result["tile_shape"] == [128, 128]
        assert result["kernel"] == "ANTIDIAG_WAVEFRONT"
        assert server.jobs[payload["id"]].request.nplaces == 2
        assert set(log.read_text().split("\n")) - {""} == {"AutoKernel 128"}

    def test_omitted_nplaces_is_capped_by_the_pool(self, server):
        from repro.serve.api import parse_job_request

        assert parse_job_request(self.BODY).nplaces == 4
        assert parse_job_request(self.BODY, default_nplaces=2).nplaces == 2
        # an explicit value the pool cannot lease is still the client's error
        status, payload = server.submit({**self.BODY, "nplaces": 3})
        assert status == 400 and "capacity 2" in payload["error"]

    def test_autokernel_alone_is_accepted(self, server):
        status, payload = server.submit({**self.BODY, "autokernel": True})
        assert status == 202
        assert server.wait(payload["id"])["result"]["kernel"] == "ANTIDIAG_WAVEFRONT"

    def test_autokernel_on_the_per_vertex_spelling_is_400(self, server):
        status, payload = server.submit(
            {**self.BODY, "tile_shape": [1, 1], "autokernel": True}
        )
        assert status == 400 and "per-vertex" in payload["error"]

    def test_the_explicit_body_keeps_its_cache_key(self):
        from repro.serve.api import parse_job_request
        from repro.serve.cache import cache_key

        explicit = {**self.BODY, "nplaces": 2, "tile_shape": [64, 64], "autokernel": True}
        req = parse_job_request(explicit)
        assert req.cache_key == cache_key("sw", req.params, "diagonal", (64, 64))
        assert parse_job_request(self.BODY).cache_key == cache_key(
            "sw", req.params, "diagonal", None
        )
