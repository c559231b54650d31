"""Property-based invariants of whole runs under random configurations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lcs import solve_lcs
from repro.apps.serial import lcs_matrix
from repro.core.config import DPX10Config

configs = st.builds(
    DPX10Config,
    nplaces=st.integers(1, 6),
    distribution=st.sampled_from(
        ["block_rows", "block_cols", "block_flat", "cyclic_rows", "cyclic_cols"]
    ),
    scheduler=st.sampled_from(["local", "random", "mincomm"]),
    cache_size=st.sampled_from([0, 1, 16]),
    # planned, the per-vertex reference, an explicit shape
    tile_shape=st.sampled_from([None, (1, 1), (3, 4)]),
    seed=st.integers(0, 100),
)

X, Y = "ABCBDABAC", "BDCABAACG"
EXPECT = int(lcs_matrix(X, Y)[-1, -1])
TOTAL = (len(X) + 1) * (len(Y) + 1)


@settings(max_examples=30, deadline=None)
@given(cfg=configs)
def test_every_configuration_reaches_oracle(cfg):
    app, rep = solve_lcs(X, Y, cfg)
    assert app.length == EXPECT
    # no faults: exactly one compute() per active vertex, nothing more
    assert rep.completions == rep.active_vertices == TOTAL
    assert rep.recoveries == 0
    assert rep.final_alive_places == cfg.nplaces
    # per-place executions account for every completion
    assert sum(rep.per_place_executed.values()) == rep.completions


@settings(max_examples=15, deadline=None)
@given(cfg=configs, fraction=st.floats(0.0, 1.0))
def test_single_fault_invariants(cfg, fraction):
    from repro.apgas.failure import FaultPlan

    if cfg.nplaces < 2:
        cfg = DPX10Config(nplaces=2)
    app, rep = solve_lcs(
        X, Y, cfg, fault_plans=[FaultPlan(cfg.nplaces - 1, at_fraction=fraction)]
    )
    assert app.length == EXPECT
    # completions never lost: at least one compute per vertex
    assert rep.completions >= rep.active_vertices
    # recomputation is bounded by what could have been finished pre-fault
    assert rep.recomputed <= TOTAL
    assert rep.recoveries in (0, 1)
    if rep.recoveries:
        assert rep.final_alive_places == cfg.nplaces - 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_inline_bit_reproducible(seed):
    cfg = DPX10Config(nplaces=3, scheduler="random", seed=seed, cache_size=8)
    _, a = solve_lcs(X, Y, cfg)
    _, b = solve_lcs(X, Y, cfg)
    assert a.network_bytes == b.network_bytes
    assert a.cache_hits == b.cache_hits
    assert a.per_place_executed == b.per_place_executed
