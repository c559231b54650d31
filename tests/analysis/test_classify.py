"""Vectorization classes: expected assignments and demotion paths."""

import numpy as np
import pytest

from repro.analysis.classify import classify_app
from repro.analysis.registry import app_fixture, app_names
from repro.core.api import DPX10App, dependency_map
from repro.patterns import GridDag
from repro.patterns.base import StencilDag

# The committed expectation (mirrors ANALYZE_classes.json): every
# built-in app's class, with the documented DP4xx code for each OPAQUE.
EXPECTED = {
    "banded": ("ANTIDIAG_WAVEFRONT", None),
    "common_substring": ("ELEMENTWISE", None),
    "cyk": ("OPAQUE", "DP405"),
    "edit_distance": ("ANTIDIAG_WAVEFRONT", None),
    "egg_drop": ("OPAQUE", "DP401"),
    "knapsack": ("ELEMENTWISE", None),
    "lcs": ("ANTIDIAG_WAVEFRONT", None),
    "lps": ("ANTIDIAG_WAVEFRONT", None),
    "matrix_chain": ("OPAQUE", "DP401"),
    "msa3": ("TENSOR_HYPERPLANE", None),
    "mtp": ("ROW_SCAN_PREFIX", None),
    "nw": ("ANTIDIAG_WAVEFRONT", None),
    "sw": ("ANTIDIAG_WAVEFRONT", None),
    "tree_knapsack": ("TREE_LEVEL_GATHER", None),
    "tree_mis": ("TREE_LEVEL_GATHER", None),
    "unbounded_knapsack": ("ROW_SCAN_PREFIX", None),
    "viterbi": ("OPAQUE", "DP401"),
}


class TestShippedClasses:
    def test_every_app_has_an_expectation(self):
        assert set(app_names()) == set(EXPECTED)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_class_and_demotion_code(self, name):
        app, dag = app_fixture(name)
        cls = classify_app(app, dag)
        klass, code = EXPECTED[name]
        assert cls.klass == klass
        codes = {f.code for f in cls.report.findings}
        if code is None:
            assert cls.vectorizable
            assert not codes
        else:
            assert code in codes

    @pytest.mark.parametrize(
        "name, rank",
        [("lcs", (1, 1)), ("lps", (-1, 1)), ("knapsack", (1, 0))],
    )
    def test_ranking_vectors(self, name, rank):
        app, dag = app_fixture(name)
        assert classify_app(app, dag).rank == rank

    def test_row_scan_form_extracted(self):
        app, dag = app_fixture("unbounded_knapsack")
        cls = classify_app(app, dag)
        assert cls.row_scan is not None
        assert cls.row_scan.read is not None


class _RowChainDag(StencilDag):
    offsets = ((0, -1),)


class TestDemotions:
    def test_value_dtype_none_dp402(self):
        class App(DPX10App):
            value_dtype = None

            def compute(self, i, j, vertices):
                dep = dependency_map(vertices)
                return dep.get((i, j - 1), 0) + 1

        cls = classify_app(App(), _RowChainDag(4, 6))
        assert cls.klass == "OPAQUE"
        assert {f.code for f in cls.report.findings} == {"DP402"}

    def test_impure_compute_dp405(self):
        class App(DPX10App):
            value_dtype = np.int64

            def compute(self, i, j, vertices):
                import time

                dep = dependency_map(vertices)
                return dep.get((i, j - 1), 0) + int(time.time())

        cls = classify_app(App(), _RowChainDag(4, 6))
        assert cls.klass == "OPAQUE"
        assert {f.code for f in cls.report.findings} == {"DP405"}

    def test_no_ranking_vector_dp403(self):
        class _ForwardDag(StencilDag):
            # (0, 1): depends on the cell to the *right*; no rank in the
            # classifier's candidate set orders it with (i-1, j)
            offsets = ((-1, 0), (0, 1))

        class App(DPX10App):
            value_dtype = np.int64

            def compute(self, i, j, vertices):
                dep = dependency_map(vertices)
                return dep.get((i - 1, j), 0) + dep.get((i, j + 1), 0)

        cls = classify_app(App(), _ForwardDag(4, 4))
        assert cls.klass == "OPAQUE"
        assert {f.code for f in cls.report.findings} == {"DP403"}

    def test_float_result_for_int_dtype_dp403(self):
        class App(DPX10App):
            value_dtype = np.int64

            def compute(self, i, j, vertices):
                dep = dependency_map(vertices)
                return dep.get((i, j - 1), 0) + 0.5

        cls = classify_app(App(), _RowChainDag(4, 6))
        assert cls.klass == "OPAQUE"
        assert {f.code for f in cls.report.findings} == {"DP403"}

    def test_footprint_contradiction_dp404(self):
        # reads the row above while the pattern declares only (0, -1):
        # the probe catches it on real cells, as an ERROR
        class App(DPX10App):
            value_dtype = np.int64

            def compute(self, i, j, vertices):
                dep = dependency_map(vertices)
                if i == 0 or j == 0:
                    return 1
                return dep[(i - 1, j)] + dep[(i, j - 1)]

        cls = classify_app(App(), _RowChainDag(4, 6))
        assert cls.klass == "OPAQUE"
        findings = cls.report.findings
        assert {f.code for f in findings} == {"DP404"}
        assert not cls.report.ok  # DP404 is an error, not a note

    def test_two_intra_row_reads_dp403(self):
        class App(DPX10App):
            value_dtype = np.int64

            def __init__(self):
                self.w = [1, 2, 1, 2, 1, 2]

            def compute(self, i, j, vertices):
                dep = dependency_map(vertices)
                if i == 0:
                    return 0
                s = self.w[i - 1]
                a = dep.get((i, j - s), 0) if s <= j else 0
                b = dep.get((i, j - s - s), 0) if s + s <= j else 0
                return max(a, b, dep.get((i - 1, j), 0))

        cls = classify_app(App(), GridDag(4, 6))
        assert cls.klass == "OPAQUE"
        assert any(f.code in ("DP403", "DP404") for f in cls.report.findings)

    def test_unbounded_knapsack_without_guard_shape_demotes(self):
        # same read but additive instead of max(base, take): not the
        # prefix-scan shape -> DP403
        app, dag = app_fixture("unbounded_knapsack")

        class App(type(app)):
            def compute(self, i, j, vertices):
                dep = dependency_map(vertices)
                if i == 0:
                    return 0
                w = self.weights[i - 1]
                if w <= j:
                    return dep[(i, j - w)] + dep[(i - 1, j)]
                return dep[(i - 1, j)]

        clone = App.__new__(App)
        clone.__dict__.update(app.__dict__)
        cls = classify_app(clone, dag)
        assert cls.klass == "OPAQUE"
        assert "DP403" in {f.code for f in cls.report.findings}


# -- the source-level memo -------------------------------------------------------------
STEP = 1  # folded into the IR as a constant by the lifter


class _StepApp(DPX10App):
    value_dtype = np.int64

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        return dep.get((i, j - 1), 0) + STEP


class TestSourceMemo:
    """Effects, IR and footprint are read off ``compute()``'s source once
    per code object; everything that looks at an instance runs per run."""

    @pytest.fixture
    def spies(self, monkeypatch):
        """``spies()`` -> (source reads so far, instance probes so far)."""
        from repro.analysis import classify

        probes = []
        real_probe = classify.probe_footprint

        def probe(*args, **kwargs):
            probes.append(args)
            return real_probe(*args, **kwargs)

        monkeypatch.setattr(classify, "probe_footprint", probe)
        classify._read_source.cache_clear()
        return lambda: (classify._read_source.cache_info().misses, len(probes))

    def test_instances_share_the_entry_and_each_runs_its_own_probe(self, spies):
        first = classify_app(_StepApp(), _RowChainDag(4, 6))
        second = classify_app(_StepApp(), _RowChainDag(5, 7))
        assert spies() == (1, 2)
        assert first.ir is second.ir and first.entries is second.entries
        # the classification itself is per instance, never shared
        assert first is not second and first.report is not second.report
        assert first.klass == second.klass == "ANTIDIAG_WAVEFRONT"

    def test_a_redefined_compute_gets_a_fresh_entry(self, spies, monkeypatch):
        class App(_StepApp):
            pass

        assert classify_app(App(), _RowChainDag(4, 6)).vectorizable

        def compute(self, i, j, vertices):
            return len([v for v in vertices])  # leaves the liftable subset

        monkeypatch.setattr(App, "compute", compute, raising=False)
        cls = classify_app(App(), _RowChainDag(4, 6))
        assert spies()[0] == 2
        assert cls.klass == "OPAQUE"
        assert [f.code for f in cls.report.findings] == ["DP401"]

    def test_a_folded_module_constant_is_part_of_the_key(self, spies, monkeypatch):
        from repro.analysis.ir import Const, walk_expr

        def consts(cls):
            return {
                n.value for e in cls.ir.exprs() for n in walk_expr(e)
                if isinstance(n, Const)
            }

        assert 7 not in consts(classify_app(_StepApp(), _RowChainDag(4, 6)))
        monkeypatch.setitem(globals(), "STEP", 7)
        assert 7 in consts(classify_app(_StepApp(), _RowChainDag(4, 6)))
        assert spies()[0] == 2

    def test_the_memo_is_bounded(self, spies, tmp_path):
        import importlib.util

        from repro.analysis import classify

        body = "".join(
            f"class App{k}(DPX10App):\n"
            "    value_dtype = np.int64\n"
            "    def compute(self, i, j, vertices):\n"
            "        dep = dependency_map(vertices)\n"
            f"        return dep.get((i, j - 1), 0) + {k}\n"
            for k in range(200)
        )
        path = tmp_path / "many_apps.py"
        path.write_text(
            "import numpy as np\n"
            "from repro.core.api import DPX10App, dependency_map\n" + body
        )
        spec = importlib.util.spec_from_file_location("many_apps", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for k in range(200):
            cls = classify_app(getattr(module, f"App{k}")(), _RowChainDag(3, 5))
            assert cls.vectorizable
            info = classify._read_source.cache_info()
            assert info.currsize <= info.maxsize == 64
        assert spies() == (200, 200)
        assert classify._read_source.cache_info().currsize == 64
        # an evicted class is simply read again
        assert classify_app(module.App0(), _RowChainDag(3, 5)).vectorizable
        assert spies()[0] == 201
