"""Domain-aware kernels: tensor hyperplanes and tree level gathers.

The object-valued tree apps cannot join the int64 differential matrix in
``test_codegen.py``, so their kernel-vs-interpreted equivalence lives
here — per engine, per tile shape, and under one seeded fault — together
with the kernel-plan shipping coverage: specs built once on the mp
master must survive pickling, worker reconstruction, and place restart.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.codegen import AutoKernel, build_autokernel, kernel_from_spec
from repro.analysis.registry import app_fixture
from repro.apgas.failure import FaultPlan
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime

TREE_APPS = ["tree_knapsack", "tree_mis"]
TILE_SHAPES = [(4, 4), (5, 3), (2, 7)]


def _values_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _run(name, fault_plans=(), **kw):
    """Run an app and return every active cell's value, plus the app."""
    app, dag = app_fixture(name)
    cfg = DPX10Config(**kw)
    report = DPX10Runtime(app, dag, cfg, fault_plans=list(fault_plans)).run()
    cells = {
        (i, j): dag.get_vertex(i, j).get_result()
        for i in range(dag.height)
        for j in range(dag.width)
        if dag.is_active(i, j)
    }
    return cells, app, report


def _assert_same_cells(want, got):
    assert set(want) == set(got)
    for coord, v in want.items():
        assert _values_equal(v, got[coord]), coord


class TestTreeKernelBuild:
    @pytest.mark.parametrize("name", TREE_APPS)
    def test_builds_cells_mode_kernel(self, name):
        app, dag = app_fixture(name)
        kernel, cls = build_autokernel(app, dag)
        assert isinstance(kernel, AutoKernel)
        assert cls.klass == "TREE_LEVEL_GATHER"
        assert kernel.mode == "cells"
        assert kernel.pads == (0, 0, 0, 0)

    def test_tensor_kernel_is_window_mode(self):
        app, dag = app_fixture("msa3")
        kernel, cls = build_autokernel(app, dag)
        assert cls.klass == "TENSOR_HYPERPLANE"
        assert kernel.mode == "window"


class TestTensorPlanCache:
    def test_many_shapes_stay_bounded_and_bit_identical(self):
        # one plan per tile origin per tensor shape: distinct shapes must
        # evict, not accumulate, and evicted plans must not change values
        from repro.analysis import domainkern
        from repro.apps.msa import MSA3App, make_msa3_instance
        from repro.apps.serial import msa3_matrix
        from repro.patterns import TensorWavefrontDag

        cache = domainkern._TENSOR_PLAN_CACHE
        cache.clear()
        peak = 0
        for n in range(2, 9):
            x, y, z = make_msa3_instance(n, seed=n)
            app = MSA3App(x, y, z)
            dag = TensorWavefrontDag(app.domain.shape)
            report = DPX10Runtime(app, dag, DPX10Config(nplaces=2, tile_shape=(2, 2))).run()
            assert report.kernel == "TENSOR_HYPERPLANE"
            got = dag.to_array(fill=-1, dtype=np.int64).reshape(app.domain.shape)
            assert np.array_equal(got, msa3_matrix(x, y, z))
            assert len(cache) <= cache.maxsize
            peak = max(peak, len(cache))
        assert peak == cache.maxsize


class TestTreeEquivalence:
    @pytest.mark.parametrize("name", TREE_APPS)
    @pytest.mark.parametrize("shape", TILE_SHAPES)
    def test_inline_tiled_equals_untiled(self, name, shape):
        want, _, _ = _run(name, engine="inline", tile_shape=(1, 1))
        got, _, _ = _run(
            name, engine="inline", tile_shape=shape, autokernel=True
        )
        _assert_same_cells(want, got)

    @pytest.mark.parametrize("name", TREE_APPS)
    def test_threaded_engine(self, name):
        want, _, _ = _run(name, engine="inline", tile_shape=(1, 1))
        got, _, _ = _run(
            name,
            engine="threaded",
            nplaces=2,
            tile_shape=(4, 4),
            autokernel=True,
        )
        _assert_same_cells(want, got)

    @pytest.mark.parametrize("name", TREE_APPS)
    def test_mp_engine(self, name):
        want, _, _ = _run(name, engine="inline", tile_shape=(1, 1))
        got, _, _ = _run(
            name,
            engine="mp",
            nplaces=2,
            tile_shape=(4, 4),
            autokernel=True,
        )
        _assert_same_cells(want, got)

    @pytest.mark.parametrize("name", TREE_APPS)
    def test_kill_and_recover_through_kernel(self, name):
        # recovery recomputes the dead partition's tiles through the
        # level-gather kernel; results must stay interpreter-identical
        want, _, _ = _run(name, engine="inline", tile_shape=(1, 1))
        got, _, report = _run(
            name,
            fault_plans=[FaultPlan(1, at_fraction=0.4)],
            engine="threaded",
            nplaces=3,
            tile_shape=(4, 4),
            autokernel=True,
        )
        assert report.recoveries >= 1
        _assert_same_cells(want, got)


class TestKernelSpecShipping:
    @pytest.mark.parametrize("name", ["sw", "mtp", "msa3"])
    def test_spec_pickles_and_rebuilds(self, name):
        # the mp master classifies once and ships the spec; workers must
        # reconstruct an equivalent kernel without re-running the probes
        app, dag = app_fixture(name)
        kernel, _ = build_autokernel(app, dag)
        assert kernel.spec is not None
        spec = pickle.loads(pickle.dumps(kernel.spec))
        rebuilt = kernel_from_spec(spec, app, dag)
        assert rebuilt is not None
        assert rebuilt.klass == kernel.klass
        assert rebuilt.pads == kernel.pads
        assert rebuilt.mode == kernel.mode

    def test_spec_rebuild_matches_fresh_kernel_output(self):
        app, dag = app_fixture("sw")
        kernel, _ = build_autokernel(app, dag)
        spec = pickle.loads(pickle.dumps(kernel.spec))
        rebuilt = kernel_from_spec(spec, app, dag)
        h, w = dag.height, dag.width
        w1 = np.zeros((h, w), dtype=app.value_dtype)
        w2 = np.zeros((h, w), dtype=app.value_dtype)
        assert kernel.fn(0, 0, w1, 0, 0, h, w) is True
        assert rebuilt.fn(0, 0, w2, 0, 0, h, w) is True
        assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("shm", [True, False])
    def test_mp_spec_survives_place_restart(self, shm):
        # the warm-restart path re-sends the meta dict (including the
        # cached kernel plan) to the replacement worker: a post-restart
        # run must still be bit-identical to the interpreted oracle
        want, _, _ = _run("sw", engine="inline", tile_shape=(1, 1))
        got, _, report = _run(
            "sw",
            fault_plans=[FaultPlan(2, at_fraction=0.5)],
            engine="mp",
            nplaces=3,
            tile_shape=(4, 4),
            autokernel=True,
            shm=shm,
        )
        assert report.recoveries >= 1
        _assert_same_cells(want, got)
