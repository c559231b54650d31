"""Straggler detection under chaos throttles, validated in both directions.

A :class:`ThrottleSpec` makes one place sleep per executed cell — the
limplock the detector exists to catch. Each engine runs twice: once
throttled (exactly the throttled place must be flagged in the
``dpx10_straggler`` gauge) and once clean (zero alerts — the
absolute-excess floor must keep scheduler noise below the bar). The mp
engine is the subtle case: its throttle sleeps in the *master* loop,
where the worker's own timer cannot see them, so the master folds the
injected sleep into the observations it feeds the detector.
"""

import pytest

from repro.apps.smith_waterman import solve_sw
from repro.chaos.schedule import ChaosSchedule, ThrottleSpec
from repro.core.config import DPX10Config
from repro.obs.metrics import by_label
from repro.util.rng import seeded_rng

THROTTLED_PLACE = 2


def _strings(size, seed=3):
    rng = seeded_rng(seed, "straggler", size)
    return (
        "".join("ACGT"[int(k)] for k in rng.integers(0, 4, size=size)),
        "".join("ACGT"[int(k)] for k in rng.integers(0, 4, size=size)),
    )


def _flags(engine, size, tile, chaos, nplaces=4, shm=True, seed=3):
    s1, s2 = _strings(size, seed=seed)
    config = DPX10Config(
        nplaces=nplaces,
        engine=engine,
        tile_shape=tile,
        metrics=True,
        chaos=chaos,
        shm=shm,
    )
    _, report = solve_sw(s1, s2, config)
    gauge = by_label(report.metrics, "dpx10_straggler", "place")
    return {int(p): v for p, v in gauge.items() if v > 0}


def _throttle(place=THROTTLED_PLACE, sleep_s=0.0005):
    return ChaosSchedule(seed=1, throttles=(ThrottleSpec(place, sleep_s=sleep_s),))


class TestThrottledPlaceIsFlagged:
    """Exactly the throttled place, nothing else."""

    def test_inline_tiled(self):
        assert set(_flags("inline", 96, (16, 16), _throttle())) == {THROTTLED_PLACE}

    def test_threaded_tiled(self):
        flags = _flags("threaded", 96, (16, 16), _throttle())
        assert set(flags) == {THROTTLED_PLACE}
        assert flags[THROTTLED_PLACE] >= 5.0  # at least the k threshold

    def test_mp_shm_tiled(self):
        # master-side sleeps are folded into the worker observations
        flags = _flags("mp", 96, (16, 16), _throttle(), shm=True)
        assert set(flags) == {THROTTLED_PLACE}

    def test_mp_pipes_per_cell(self):
        flags = _flags("mp", 48, (1, 1), _throttle(), shm=False)
        assert set(flags) == {THROTTLED_PLACE}

    def test_a_different_place_moves_the_flag(self):
        assert set(_flags("threaded", 96, (16, 16), _throttle(place=0))) == {0}


class TestCleanRunsRaiseNoAlerts:
    """Zero false positives: the other half of the detector's contract."""

    @pytest.mark.parametrize("engine,shm", [
        ("inline", None), ("threaded", None), ("mp", True),
    ])
    def test_clean_tiled_run_is_quiet(self, engine, shm):
        assert _flags(engine, 96, (16, 16), None, shm=shm) == {}

    def test_clean_mp_pipes_run_is_quiet(self):
        assert _flags("mp", 48, (1, 1), None, shm=False) == {}

    def test_clean_threaded_repeats_stay_quiet(self):
        # scheduler jitter across repetitions must stay under the
        # absolute-excess floor
        for seed in (3, 4, 5):
            assert _flags("threaded", 96, (16, 16), None, seed=seed) == {}


class TestResultsAreUnperturbed:
    def test_throttle_changes_timing_not_answers(self):
        s1, s2 = _strings(64)
        base = DPX10Config(nplaces=4, engine="threaded", tile_shape=(16, 16))
        slow = DPX10Config(
            nplaces=4, engine="threaded", tile_shape=(16, 16),
            chaos=_throttle(),
        )
        app_a, _ = solve_sw(s1, s2, base)
        app_b, _ = solve_sw(s1, s2, slow)
        assert app_a.best_score == app_b.best_score
