"""Chaos battery for the shared-memory transport (ISSUE 5 satellite).

One seeded schedule per engine kills a place mid-run with the shm data
plane forced on, then asserts two things the pickled-pipe battery cannot:

* the run still matches the serial oracle cell-for-cell (recovery
  re-materializes the dead place's plane regions by recompute), and
* no ``dpx10-`` segment is left behind in ``/dev/shm`` — the leak
  detector is the whole point of routing segment lifetime through
  :class:`~repro.core.shm.ShmArena`.

The kills land mid-wavefront (for the tiled cases: with finished tiles
on the plane and their successors queued), which is exactly when a
leaked or stale segment would surface.
"""

import pytest

from repro.chaos.harness import CaseSpec, run_case
from repro.chaos.schedule import ChaosSchedule, KillSpec
from repro.core.shm import leaked_segments, shm_supported

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="no usable shared memory on this platform"
)

ENGINES = ["inline", "threaded", "mp"]


def _check_no_leaks():
    leaks = leaked_segments()
    assert leaks == [], f"leaked /dev/shm segments: {leaks}"


@pytest.mark.parametrize("engine", ENGINES)
def test_kill_mid_run_shm_matches_oracle(engine):
    """sw under a seeded mid-run kill, shm forced on, untiled."""
    spec = CaseSpec(
        app="sw", pattern="diagonal", engine=engine, nplaces=4,
        height=24, width=24, shm=True,
    )
    schedule = ChaosSchedule(
        seed=101, kills=(KillSpec(2, after_completions=120),)
    )
    result = run_case(spec, schedule)
    assert result.ok and not result.error, result.describe()
    assert result.injected.get("kill") == 1
    assert result.recoveries >= 1
    _check_no_leaks()


@pytest.mark.parametrize("engine", ENGINES)
def test_kill_mid_prefetch_tiled_shm_matches_oracle(engine):
    """Tiled run killed mid-wavefront: the dead place's tiles are zeroed
    on the plane, re-homed and recomputed (every engine, one rule)."""
    spec = CaseSpec(
        app="sw", pattern="diagonal", engine=engine, nplaces=4,
        height=24, width=24, tile_shape=(4, 4), shm=True,
    )
    schedule = ChaosSchedule(
        seed=202, kills=(KillSpec(1, after_completions=90),)
    )
    result = run_case(spec, schedule)
    assert result.ok and not result.error, result.describe()
    assert result.recoveries >= 1
    _check_no_leaks()


@pytest.mark.parametrize("engine", ENGINES)
def test_shm_off_still_matches_oracle(engine):
    """The forced-off leg: same schedule over the pickled/pipe transport."""
    spec = CaseSpec(
        app="sw", pattern="diagonal", engine=engine, nplaces=4,
        height=24, width=24, tile_shape=(4, 4), shm=False,
    )
    schedule = ChaosSchedule(
        seed=202, kills=(KillSpec(1, after_completions=90),)
    )
    result = run_case(spec, schedule)
    assert result.ok and not result.error, result.describe()
    _check_no_leaks()


def test_cascade_kills_under_shm_no_leaks():
    """Two sequential deaths: every re-built store generation is unlinked."""
    spec = CaseSpec(
        app="probe", pattern="diagonal", engine="mp", nplaces=4,
        height=16, width=16, tile_shape=(4, 4), shm=True,
    )
    schedule = ChaosSchedule(
        seed=303,
        kills=(
            KillSpec(1, after_completions=40),
            KillSpec(3, after_completions=100),
        ),
    )
    result = run_case(spec, schedule)
    assert result.ok and not result.error, result.describe()
    _check_no_leaks()
