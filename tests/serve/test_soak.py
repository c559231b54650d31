"""The serving acceptance case: place kills mid-request must not fail jobs.

Extends the chaos battery one layer up — the same seeded
:class:`~repro.apgas.failure.FaultPlan` kills, but injected through the
public job API against a live server, with the warm pool supplying the
mid-run replacement. Every faulted job must reach ``done`` with a score
bit-identical to the serial oracle.
"""

from repro.chaos.soak import SoakSpec, run_soak


def test_place_kill_mid_request_completes_with_oracle_score():
    spec = SoakSpec(requests=4, size=48, nplaces=3, fault_fraction=1.0)
    report = run_soak(spec)
    assert report.ok, report.describe()
    faulted = [t for t in report.trials if t.faulted]
    assert len(faulted) == 4
    # each kill was absorbed by recovery, not by luck (kill landing
    # after the run finished would show zero recoveries)
    assert all(t.recoveries >= 1 for t in faulted), report.describe()
    assert report.restarts_served >= len(faulted)


def test_place_zero_kill_survives_with_pool():
    # one-shot mode treats place 0 as unrecoverable; the pool makes even
    # the master's peer replaceable mid-run
    spec = SoakSpec(requests=1, size=48, nplaces=3, fault_fraction=1.0)
    assert spec.plan()[0][4] == 0  # the first victim in rotation is place 0
    report = run_soak(spec)
    assert report.ok, report.describe()


def test_soak_over_http_transport():
    spec = SoakSpec(requests=3, size=32, nplaces=2, fault_fraction=0.5)
    report = run_soak(spec, over_http=True)
    assert report.ok, report.describe()
    assert any(t.faulted for t in report.trials)
    assert any(not t.faulted for t in report.trials)


def test_soak_over_http_retries_a_429():
    # twelve back-to-back submissions overrun admission: the 429's JSON
    # body carries retry_after, which the soak's retry loop must see
    # instead of urlopen's HTTPError
    spec = SoakSpec(requests=12, size=32, nplaces=2, fault_fraction=0.5)
    report = run_soak(spec, over_http=True)
    assert report.ok, report.describe()
    assert len(report.trials) == 12


def test_soak_requires_fault_enabled_server():
    from repro.serve.server import JobServer

    import pytest

    srv = JobServer(port=0, pool_capacity=2, prewarm=False)
    try:
        with pytest.raises(ValueError):
            run_soak(SoakSpec(requests=1), server=srv)
    finally:
        srv.close()
