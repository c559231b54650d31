"""The plan memo: a solve whose shape was seen before skips classification,
kernel emission and coarsening, and never gets a plan its own data refuses.

``build_autokernel`` memoizes a plan per *signature* (``compute()``'s
source, the app type and value dtype, every attribute the IR reads by
kind, dtype and shape, the dag type, shape and offsets); mp places keep
kernel templates by the digest the master ships; dense stencils share
their tile geometry (docs/ANALYSIS.md §8, docs/TILING.md).
"""

from __future__ import annotations

import collections
import gc
import os
import weakref

import numpy as np
import pytest

from repro.analysis import codegen, flatsweep
from repro.analysis.classify import PLAN_MEMO
from repro.analysis.codegen import build_autokernel
from repro.core import tiling
from repro.core.api import DPX10App, dependency_map
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.native import edit_distance_native, lcs_native, mtp_native, sw_native
from repro.patterns import DiagonalDag
from repro.serve.api import APPS


def _plans(app_type):
    return [v for k, v in PLAN_MEMO.items() if k[0] == "plan" and k[1][1] is app_type]


@pytest.fixture(autouse=True)
def cold_memo():
    PLAN_MEMO.clear()
    tiling._GEOMETRY.clear()
    yield
    PLAN_MEMO.clear()
    tiling._GEOMETRY.clear()


class _FlagApp(DPX10App):
    """Reads the undeclared ``(i - 2, j)`` only on rows its data flags."""

    value_dtype = np.int64

    def __init__(self, flags):
        self.flags = np.asarray(flags, dtype=np.int64)

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        if i == 0 or j == 0:
            return 0
        if self.flags[i] > 0 and i >= 2:
            return dep[(i - 2, j)] + 1
        return max(dep[(i - 1, j)], dep[(i, j - 1)]) + 1


class _TableApp(DPX10App):
    """Reads a string and a table whose lengths the dag does not fix."""

    value_dtype = np.int64

    def __init__(self, word, table):
        self.word, self.table = word, np.asarray(table, dtype=np.int64)

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        if i == 0 or j == 0:
            return 0
        if self.word[j - 1] == "a":
            return dep[(i - 1, j - 1)] + self.table[i - 1]
        return max(dep[(i - 1, j)], dep[(i, j - 1)])


def _oracle(app, dag):
    DPX10Runtime(app, dag, DPX10Config(tile_shape=(1, 1))).run()
    return dag.to_array(fill=-1, dtype=np.int64)


def _solve(app, dag, **cfg):
    DPX10Runtime(app, dag, DPX10Config(**cfg)).run()
    return dag.to_array(fill=-1, dtype=np.int64)


class TestSoundness:
    @pytest.mark.parametrize("order", ["quiet first", "loud first"])
    def test_a_data_guarded_undeclared_read_is_never_served_from_the_memo(self, order):
        quiet, loud = _FlagApp([0] * 9), _FlagApp([1] * 9)
        for app in (quiet, loud) if order == "quiet first" else (loud, quiet):
            kernel, cls = build_autokernel(app, DiagonalDag(9, 9))
            if app is loud:  # its data takes the read: refused, as without a memo
                assert kernel is None and cls.klass == "OPAQUE"
                assert "DP404" in {f.code for f in cls.report.findings}
            else:  # its own data never takes the read
                assert cls.klass == "ANTIDIAG_WAVEFRONT"
        # the data-free probe refuses the signature: every instance classifies
        assert _plans(_FlagApp) == [None]
        kernel, cls = build_autokernel(_FlagApp([0] * 4 + [1] * 5), DiagonalDag(9, 9))
        assert kernel is None and "DP404" in {f.code for f in cls.report.findings}

    def test_a_changed_attribute_shape_or_string_length_misses(self):
        dag = lambda: DiagonalDag(7, 7)  # noqa: E731
        seen = []
        for word, table in [
            ("abcaba", [1, 2, 3, 4, 5, 6]),
            ("bacaab", [6, 5, 4, 3, 2, 1]),  # same shapes, other data: a hit
            ("abcabaaba", [1, 2, 3, 4, 5, 6]),  # a longer string
            ("abcaba", [1, 2, 3, 4, 5, 6, 7, 8]),  # a longer table
        ]:
            app = _TableApp(word, table)
            kernel, cls = build_autokernel(app, dag())
            assert kernel is not None
            seen.append(len(_plans(_TableApp)))
            assert np.array_equal(
                _solve(_TableApp(word, table), dag(), tile_shape=(3, 4)),
                _oracle(_TableApp(word, table), dag()),
            )
        assert seen == [1, 1, 2, 3]

    def test_a_memo_entry_keeps_no_reference_to_the_app_or_its_arrays(self):
        def solve(seed):
            spec = APPS["mtp"]
            app, dag = spec.build(spec.normalize({"size": 40, "seed": seed}))
            DPX10Runtime(app, dag, DPX10Config(tile_shape=(16, 16))).run()
            refs = [weakref.ref(x) for x in (app, app.w_down, app.w_right, dag)]
            return refs

        solve(1)  # the miss: builds the plan, the template and the geometry
        refs = solve(2)  # a hit: binds them to this instance
        gc.collect()
        assert [r() for r in refs] == [None] * 4
        kinds = collections.Counter(k[0] for k in PLAN_MEMO)
        assert kinds["plan"] == kinds["kernel"] == 1 and len(tiling._GEOMETRY) == 1


class _Spy:
    """Counts classifications with data and kernel emissions per process
    (a file, so forked places count too)."""

    def __init__(self, path, monkeypatch):
        self.path = path
        real_classify, real_emit = codegen.classify_app, flatsweep.build_slice_kernel

        def classify_app(app, dag, subject="", data=True):
            if data:
                self._note("classify", app)
            return real_classify(app, dag, subject, data)

        def build_slice_kernel(spec, app, dag, pads):
            self._note("emit", app)
            return real_emit(spec, app, dag, pads)

        monkeypatch.setattr(codegen, "classify_app", classify_app)
        monkeypatch.setattr(flatsweep, "build_slice_kernel", build_slice_kernel)

    def _note(self, what, app):
        with open(self.path, "a") as fh:
            fh.write(f"{what} {os.getpid()} {type(app).__name__}\n")

    def counts(self):
        with open(self.path) as fh:
            return collections.Counter(tuple(line.split()) for line in fh)


NATIVE = {
    "sw": lambda app: sw_native(app.str1, app.str2),
    "lcs": lambda app: lcs_native(app.x, app.y),
    "edit": lambda app: edit_distance_native(app.x, app.y),
    "mtp": lambda app: mtp_native(app.w_down, app.w_right),
}


def test_same_shape_instances_plan_once_per_process_on_every_engine(tmp_path, monkeypatch):
    from repro.serve.pool import PlacePool

    spy = _Spy(tmp_path / "spy.txt", monkeypatch)
    engines = [
        dict(engine="inline"),
        dict(engine="threaded"),
        dict(engine="mp", shm=True),
        dict(engine="mp", shm=False),
    ]
    with PlacePool(2, prewarm=True) as pool:  # places forked before any plan
        for name, native in NATIVE.items():
            spec = APPS[name]
            for k in range(6):
                for extra in engines:
                    if extra["engine"] == "mp":
                        extra = dict(extra, place_pool=pool)
                    app, dag = spec.build(spec.normalize({"size": 48, "seed": 40 + k}))
                    got = _solve(app, dag, nplaces=2, tile_shape=(16, 16), **extra)
                    assert np.array_equal(got, native(app)), (name, k, extra)
    counts = spy.counts()
    master = str(os.getpid())
    apps = {"SWApp", "LCSApp", "EditDistanceApp", "MTPApp"}
    assert {app for (what, pid, app) in counts if what == "classify"} == apps
    assert all(n == 1 for n in counts.values()), counts
    assert {pid for (_, pid, _) in counts if pid != master}, "the pooled places emitted nothing"
    assert all(
        what == "emit" for (what, pid, _) in counts if pid != master
    ), "a place classified"


def test_concurrent_same_shape_jobs_match_their_oracles():
    # mp jobs plan on the master's executor threads and bind in the
    # places; inline jobs also run the whole solve on those threads
    from repro.serve.scheduler import TenantPolicy
    from repro.serve.server import JobServer

    policy = TenantPolicy(rate=100.0, burst=100.0, max_in_flight=16)
    server = JobServer(port=0, pool_capacity=2, prewarm=False, default_policy=policy)
    try:
        bodies = [
            {
                "app": "sw",
                "params": {"size": 64, "seed": 70 + k},
                "engine": engine,
                "cache": False,
            }
            for engine in ("mp", "inline")
            for k in range(8)
        ]
        ids = []
        for body in bodies:
            status, payload = server.submit(body)
            assert status == 202
            ids.append(payload["id"])
        for body, job_id in zip(bodies, ids):
            job = server.wait(job_id)
            spec = APPS["sw"]
            assert job["status"] == "done", job
            assert job["result"]["score"] == spec.oracle(spec.normalize(body["params"]))
        memo = server.stats()["plan_memo"]
        assert memo["hits"] > 0 and memo["size"] > 0
    finally:
        server.close()
