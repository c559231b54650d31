#!/usr/bin/env python
"""CI serving smoke: concurrent multi-tenant jobs against a live server.

Boots a real :class:`repro.serve.server.JobServer` (ephemeral port,
prewarmed place pool), then exercises the serving contract end to end
over HTTP, the way ``python -m repro serve`` clients would:

* three concurrent jobs from two tenants (differential-checked against
  the app catalog's serial oracles, each run by its class's generated
  kernel — a demoted app still matches the oracle, only slower);
* a repeat submission that must come back ``cached: true``;
* a same-shape job with other data and ``"cache": false``, which must
  match its oracle and be planned from the plan memo (``GET /stats``:
  a hit and no miss);
* a ``GET /metrics`` scrape validated line-by-line against the
  Prometheus text-format schema, including the per-tenant families the
  observability docs promise;
* a Chrome-trace export of the server's queue/execute spans, written
  for ``scripts/check_trace_schema.py`` and the CI artifact upload.

Usage::

    python scripts/serve_smoke.py [--trace-out serve-trace.json]
                                  [--metrics-out serve-metrics.txt]

Exits non-zero on the first broken expectation, printing what differed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import urllib.request

#: the three concurrent jobs: (tenant, app, params)
JOBS = (
    ("alice", "sw", {"size": 192, "seed": 11}),
    ("alice", "lcs", {"size": 160, "seed": 12}),
    ("bob", "mtp", {"size": 128, "seed": 13}),
)

#: the generated kernel each job's app must run (its ``kernel`` field)
KERNELS = {
    "sw": "ANTIDIAG_WAVEFRONT",
    "lcs": "ANTIDIAG_WAVEFRONT",
    "mtp": "ROW_SCAN_PREFIX",
}

#: metric families the scrape must expose (docs/OBSERVABILITY.md)
REQUIRED_FAMILIES = (
    "dpx10_jobs_total",
    "dpx10_job_seconds",
    "dpx10_job_queue_depth",
    "dpx10_jobs_in_flight",
    "dpx10_pool_workers_idle",
    "dpx10_pool_forks_total",
    "dpx10_result_cache_hits",
    "dpx10_pacer_active_jobs",
    "dpx10_plan_memo_hits_total",
    "dpx10_plan_memo_misses_total",
    "dpx10_plan_memo_entries",
)

SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?\s+[0-9eE+.\-]+(\s+\d+)?$"
)


def _post(base: str, path: str, body: dict) -> tuple:
    data = json.dumps(body).encode()
    req = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:  # 4xx/5xx still carry JSON
        return exc.code, json.loads(exc.read())


def _get(base: str, path: str, raw: bool = False):
    with urllib.request.urlopen(base + path, timeout=120) as resp:
        payload = resp.read()
        return payload.decode() if raw else json.loads(payload)


def check_prometheus(text: str) -> list:
    """Validate the text-format scrape; returns a list of violations."""
    errors = []
    seen = set()
    typed = {}
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                errors.append(f"line {n}: malformed TYPE line: {line!r}")
            else:
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            errors.append(f"line {n}: unknown comment form: {line!r}")
            continue
        if not SAMPLE_RE.match(line):
            errors.append(f"line {n}: not a valid sample line: {line!r}")
            continue
        seen.add(line.split("{")[0].split()[0])
    for family in REQUIRED_FAMILIES:
        if not any(s == family or s.startswith(family + "_") for s in seen):
            errors.append(f"required metric family missing from scrape: {family}")
    for family in ("dpx10_jobs_total", "dpx10_job_seconds"):
        if family not in typed:
            errors.append(f"missing # TYPE line for {family}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default="serve-trace.json")
    parser.add_argument("--metrics-out", default="serve-metrics.txt")
    args = parser.parse_args(argv)

    from repro.serve.api import APPS
    from repro.serve.server import JobServer, serve_background

    server = JobServer(port=0, pool_capacity=4, prewarm=True)
    failures = []
    with serve_background(server) as base:
        print(f"serving smoke against {base}")
        results = {}

        def run_job(idx, tenant, app, params):
            status, payload = _post(
                base,
                "/jobs",
                {"tenant": tenant, "app": app, "params": params},
            )
            if status != 202:
                results[idx] = ("submit", status, payload)
                return
            job = _get(base, f"/jobs/{payload['id']}?wait=90")
            results[idx] = ("done", job)

        threads = [
            threading.Thread(target=run_job, args=(i, *spec))
            for i, spec in enumerate(JOBS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for i, (tenant, app, params) in enumerate(JOBS):
            kind, *rest = results[i]
            if kind != "done":
                failures.append(f"job {i} ({tenant}/{app}) failed to submit: {rest}")
                continue
            job = rest[0]
            spec = APPS[app]
            want = spec.oracle(spec.normalize(dict(params)))
            result = job.get("result") or {}
            got = result.get("score")
            if job.get("status") != "done" or got != want:
                failures.append(
                    f"job {i} ({tenant}/{app}): status={job.get('status')} "
                    f"score={got} oracle={want} error={job.get('error')}"
                )
            elif result.get("kernel") != KERNELS[app]:
                failures.append(
                    f"job {i} ({tenant}/{app}) ran kernel {result.get('kernel')!r}, "
                    f"not {KERNELS[app]!r}"
                )
            else:
                print(f"  {tenant:>6} {app:>4} score {got} == oracle ({result['kernel']})")

        # a repeat submission must hit the result cache
        tenant, app, params = JOBS[0]
        status, payload = _post(
            base, "/jobs", {"tenant": tenant, "app": app, "params": params}
        )
        if status == 202:
            payload = _get(base, f"/jobs/{payload['id']}?wait=90")
        if not payload.get("cached"):
            failures.append(f"repeat submission was not served from cache: {payload}")
        else:
            print("  repeat submission served from cache")

        # same shape, other data, no result cache: the plan comes from the memo
        before = _get(base, "/stats")["plan_memo"]
        params = dict(params, seed=params["seed"] + 100)
        status, payload = _post(
            base, "/jobs", {"tenant": tenant, "app": app, "params": params, "cache": False}
        )
        job = _get(base, f"/jobs/{payload['id']}?wait=90") if status == 202 else payload
        after = _get(base, "/stats")["plan_memo"]
        want = APPS[app].oracle(APPS[app].normalize(dict(params)))
        got = (job.get("result") or {}).get("score")
        hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
        if got != want or hits < 1 or misses != 0:
            failures.append(
                f"same-shape job: score={got} oracle={want}, plan memo "
                f"+{hits} hits +{misses} misses (want a hit and no miss): {job}"
            )
        else:
            print(f"  same-shape job score {got} == oracle, planned from the memo (+{hits} hits)")

        scrape = _get(base, "/metrics", raw=True)
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(scrape)
        errors = check_prometheus(scrape)
        failures.extend(errors)
        if not errors:
            print(
                f"  /metrics scrape OK ({len(scrape.splitlines())} lines, "
                f"{len(REQUIRED_FAMILIES)} required families present)"
            )

    server.export_trace(args.trace_out)
    server.close()
    print(f"wrote {args.trace_out} and {args.metrics_out}")
    if failures:
        print("FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("serving smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
