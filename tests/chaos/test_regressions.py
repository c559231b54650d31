"""Directed regression cases for the hard corners of the fault space.

The generated battery (test_property) only explores the survivable space
(place 0 is never targeted). These tests pin the edges: a second place
dying while recovery for the first is in flight, near-simultaneous
deaths sharing one completion threshold, losing every worker place, and
the unrecoverable cases — which must surface as a clean
:class:`UnrecoverableError`, never a hang or a wrong answer.
"""

import pytest

from repro.apgas.failure import FaultPlan
from repro.chaos.harness import CaseSpec, build_case, run_case
from repro.chaos.schedule import ChaosSchedule, KillSpec, RecoveryKillSpec
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.errors import PlaceZeroDeadError, UnrecoverableError

ENGINES = ["inline", "threaded", "mp"]


def _raw_run(engine, schedule, *, nplaces=3, fault_plans=()):
    """Run the probe app directly so exception types stay observable."""
    spec = CaseSpec(pattern="diagonal", engine=engine, nplaces=nplaces)
    app, dag, _ = build_case(spec)
    cfg = DPX10Config(
        nplaces=nplaces, engine=engine, chaos=schedule, tile_shape=(1, 1)
    )
    return DPX10Runtime(app, dag, cfg, fault_plans=fault_plans).run()


def _check(spec, schedule):
    result = run_case(spec, schedule)
    assert result.ok and not result.error, result.describe()
    return result


@pytest.mark.parametrize("engine", ["inline", "threaded"])
def test_second_place_dies_mid_recovery(engine):
    spec = CaseSpec(pattern="diagonal", engine=engine, nplaces=3)
    schedule = ChaosSchedule(
        seed=1,
        kills=(KillSpec(1, after_completions=50),),
        recovery_kills=(RecoveryKillSpec(2, during_pass=1, after_progress=0),),
    )
    result = _check(spec, schedule)
    assert result.injected.get("kill") == 1
    assert result.injected.get("recovery_kill") == 1
    assert result.recoveries >= 1


def test_mp_second_place_dies_mid_recovery():
    # mp recovery progress counts *recomputed* cells (often few), so the
    # mid-recovery kill must use after_progress=0 to fire reliably
    spec = CaseSpec(pattern="diagonal", engine="mp", nplaces=4)
    schedule = ChaosSchedule(
        seed=1,
        kills=(KillSpec(1, after_completions=25),),
        recovery_kills=(RecoveryKillSpec(2, during_pass=1, after_progress=0),),
    )
    result = _check(spec, schedule)
    assert result.injected.get("recovery_kill") == 1
    assert result.recoveries >= 1


@pytest.mark.parametrize("engine", ENGINES)
def test_near_simultaneous_kills_share_threshold(engine):
    spec = CaseSpec(pattern="diagonal", engine=engine, nplaces=4)
    schedule = ChaosSchedule(
        seed=2,
        kills=(
            KillSpec(1, after_completions=40),
            KillSpec(2, after_completions=40),
        ),
    )
    result = _check(spec, schedule)
    assert result.injected.get("kill") == 2
    assert result.recoveries >= 1


@pytest.mark.parametrize("engine", ENGINES)
def test_duplicate_fault_plans_same_threshold(engine):
    # the explicit FaultPlan path must tolerate identical thresholds too
    schedule = ChaosSchedule(seed=0)
    report = _raw_run(
        engine,
        None if schedule.is_empty else schedule,
        nplaces=4,
        fault_plans=[
            FaultPlan(1, after_completions=40),
            FaultPlan(2, after_completions=40),
        ],
    )
    assert report.recoveries >= 1


@pytest.mark.parametrize("engine", ENGINES)
def test_kill_place_zero_raises_cleanly(engine):
    schedule = ChaosSchedule(
        seed=3, kills=(KillSpec(0, after_completions=30),)
    )
    with pytest.raises(UnrecoverableError) as exc_info:
        _raw_run(engine, schedule)
    assert isinstance(exc_info.value, PlaceZeroDeadError)


@pytest.mark.parametrize("engine", ["inline", "threaded"])
def test_place_zero_dies_mid_recovery(engine):
    schedule = ChaosSchedule(
        seed=4,
        kills=(KillSpec(1, after_completions=50),),
        recovery_kills=(RecoveryKillSpec(0, during_pass=1, after_progress=0),),
    )
    with pytest.raises(UnrecoverableError) as exc_info:
        _raw_run(engine, schedule)
    assert isinstance(exc_info.value, PlaceZeroDeadError)


@pytest.mark.parametrize("engine", ENGINES)
def test_cascade_killing_every_worker_completes_on_place_zero(engine):
    # lose places 1 and 2 in sequence; place 0 absorbs everything
    spec = CaseSpec(pattern="diagonal", engine=engine, nplaces=3)
    schedule = ChaosSchedule(
        seed=5,
        kills=(
            KillSpec(1, after_completions=30),
            KillSpec(2, after_completions=70),
        ),
    )
    result = _check(spec, schedule)
    assert result.injected.get("kill") == 2
    assert result.recoveries == 2


def test_harness_reports_unrecoverable_as_clean_failure():
    # the differential harness must classify place-0 death as a *clean*
    # outcome (ok, with the error recorded), not a trial failure
    spec = CaseSpec(pattern="diagonal", engine="inline")
    schedule = ChaosSchedule(seed=6, kills=(KillSpec(0, after_completions=10),))
    result = run_case(spec, schedule)
    assert result.ok
    assert "PlaceZeroDeadError" in (result.error or "")
