"""Vectorization classes: expected assignments and demotion paths."""

import numpy as np
import pytest

from repro.analysis.classify import classify_app
from repro.analysis.infer import probe_footprint
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


class _RowAboveApp(DPX10App):
    """Reads the row above while a ``_RowChainDag`` declares only (0, -1)."""

    value_dtype = np.int64

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        if i == 0 or j == 0:
            return 1
        return dep[(i - 1, j)] + dep[(i, j - 1)]


class _TwoIntraRowApp(DPX10App):
    """Two intra-row reads at data-dependent strides."""

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
        cls = classify_app(_RowAboveApp(), _RowChainDag(4, 6))
        assert cls.klass == "OPAQUE"
        findings = cls.report.findings
        assert {f.code for f in findings} == {"DP404"}
        assert not cls.report.ok  # DP404 is an error, not a note

    def test_two_intra_row_reads_dp403(self):
        cls = classify_app(_TwoIntraRowApp(), GridDag(4, 6))
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


# -- the footprint probe ---------------------------------------------------------------
class TestProbe:
    """The probe walks every IR node of every sampled cell: how the walk
    is made cheap must not change what it finds."""

    LIFTED = [
        n for n, (klass, _code) in sorted(EXPECTED.items())
        if klass in ("ELEMENTWISE", "ANTIDIAG_WAVEFRONT", "ROW_SCAN_PREFIX")
    ]

    @pytest.mark.parametrize("name", LIFTED)
    def test_registry_apps_probe_clean(self, name):
        app, dag = app_fixture(name)
        assert probe_footprint(classify_app(app, dag).ir, app, dag) == []

    def test_dp404_fixtures_report_the_same_problems(self):
        # in sample order, stopping at five
        def problems(app, dag):
            return probe_footprint(classify_app(app, dag).ir, app, dag)

        assert problems(_RowAboveApp(), _RowChainDag(4, 6)) == [
            f"cell (1, {j}) reads (0, {j}) but the pattern declares only [(1, {j - 1})]"
            for j in range(1, 6)
        ]
        assert problems(_TwoIntraRowApp(), GridDag(4, 6)) == [
            "cell (1, 2) reads (1, 0) but the pattern declares only [(0, 2), (1, 1)]",
            "cell (1, 3) reads (1, 1) but the pattern declares only [(0, 3), (1, 2)]",
            "cell (1, 4) reads (1, 2) but the pattern declares only [(0, 4), (1, 3)]",
            "cell (1, 5) reads (1, 3) but the pattern declares only [(0, 5), (1, 4)]",
            "cell (2, 2) reads (2, 0) but the pattern declares only [(1, 2), (2, 1)]",
        ]


class _ScanOrAboveApp(DPX10App):
    """The scan idiom: ``present(i, j-1)`` is a Cond test only a solve
    can decide, so the probe collects both branches."""

    value_dtype = np.int64

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        best = dep.get((i - 1, j), 0)
        for v in vertices:
            if v.i == i and v.j == j - 1:
                best = v.get_result() + 1
        return best


class _NoSeedApp(DPX10App):
    """A guarded Reduce with no seed case: both guards are false at (0, 0)."""

    value_dtype = np.int64

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        cands = []
        if i > 0:
            cands.append(dep[(i - 1, j)] + 1)
        if j > 0:
            cands.append(dep[(i, j - 1)] + 1)
        return max(cands)


class _DefaultReadsApp(DPX10App):
    """``dep.get`` whose default is itself a mandatory read."""

    value_dtype = np.int64

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        return dep.get((i, j - 1), dep[(i - 1, j)]) + 1


class _ThreeAboveApp(DPX10App):
    """Three mandatory reads the row-chain pattern never declares."""

    value_dtype = np.int64

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        return dep[(i - 1, j)] + dep[(i - 1, j - 1)] + dep[(i - 2, j)]


class _DataGuardApp(DPX10App):
    """Which case fires past column 0 depends on ``self.far``: only a row
    with ``far[i] != 0`` reaches the undeclared read of the row above."""

    value_dtype = np.int64

    def __init__(self, far):
        self.far = far

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        if j == 0:
            return 0
        if self.far[i] == 0:
            return dep[(i, j - 1)] + 1
        return dep[(i - 1, j)] + 1


class TestProbePaths:
    """Probe paths the registry goldens never reach, pinned message for
    message (sample order, the five-problem cap checked per cell)."""

    def test_an_unknown_cond_test_collects_both_branches(self):
        # then-branch reads past the border, else-branch reads the
        # undeclared row above: both are reported, test first
        app, dag = _ScanOrAboveApp(), _RowChainDag(3, 4)
        assert probe_footprint(classify_app(app, dag).ir, app, dag) == [
            "cell (0, 0) reads (0, -1) which is outside the DAG",
            "cell (1, 0) reads (1, -1) which is outside the DAG",
            "cell (1, 0) reads (0, 0) but the pattern declares only []",
            "cell (1, 1) reads (0, 1) but the pattern declares only [(1, 0)]",
            "cell (1, 2) reads (0, 2) but the pattern declares only [(1, 1)]",
        ]

    def test_a_reduce_with_every_guard_false_reads_nothing(self):
        app, dag = _NoSeedApp(), GridDag(3, 4)
        # unguarded, (0, 0) would read (-1, 0) and (0, -1), both outside
        assert probe_footprint(classify_app(app, dag).ir, app, dag) == []

    def test_a_default_that_reads_is_collected(self):
        app, dag = _DefaultReadsApp(), _RowChainDag(3, 4)
        assert probe_footprint(classify_app(app, dag).ir, app, dag) == [
            "cell (0, 0) reads (-1, 0) which is outside the DAG",
            "cell (0, 1) reads (-1, 1) which is outside the DAG",
            "cell (0, 2) reads (-1, 2) which is outside the DAG",
            "cell (0, 3) reads (-1, 3) which is outside the DAG",
            "cell (1, 0) reads (0, 0) but the pattern declares only []",
        ]

    def test_the_cap_stops_after_the_cell_that_reaches_five(self):
        app, dag = _ThreeAboveApp(), _RowChainDag(3, 4)
        assert probe_footprint(classify_app(app, dag).ir, app, dag) == [
            "cell (0, 0) reads (-1, 0) which is outside the DAG",
            "cell (0, 0) reads (-1, -1) which is outside the DAG",
            "cell (0, 0) reads (-2, 0) which is outside the DAG",
            "cell (0, 1) reads (-1, 1) which is outside the DAG",
            "cell (0, 1) reads (-1, 0) which is outside the DAG",
            "cell (0, 1) reads (-2, 1) which is outside the DAG",
        ]

    def test_compiled_closures_keep_the_evaluator_semantics(self):
        from repro.analysis import infer
        from repro.analysis.ir import BoolE, Cmp, Const, DepRead, Index, Reduce, SelfElem

        i, j = Index("i"), Index("j")
        read = DepRead(i, j)
        # and/or short-circuit to a bool: the read after a deciding part never runs
        assert infer.compile_expr(BoolE("or", (Const(3), read)))(0, 0, None) is True
        assert infer.compile_expr(BoolE("and", (Const(0), read)))(0, 0, None) is False
        with pytest.raises(infer._NeedsDep):
            infer.compile_expr(BoolE("and", (Const(1), read)))(0, 0, None)
        # an empty candidate set is unknown, not an error
        empty = Reduce("max", ((Cmp(">", i, Const(0)), j),))
        with pytest.raises(infer._NeedsDep):
            infer.compile_expr(empty)(0, 5, None)
        assert infer.compile_expr(empty)(1, 5, None) == 5

        # self.* is read from the app at call time, never captured
        class App:
            w = [4, 5]

        f, app = infer.compile_expr(SelfElem("w", j)), App()
        assert f(0, 1, app) == 5
        app.w = [7, 8]
        assert f(0, 1, app) == 8

    def test_the_compiled_plan_holds_no_instance_data(self):
        from repro.analysis import infer

        dag = _RowChainDag(3, 4)

        def dp404(far):
            cls = classify_app(_DataGuardApp(far), dag)
            return [f.message for f in cls.report.findings if f.code == "DP404"]

        far_row = [
            f"cell (1, {j}) reads (0, {j}) but the pattern declares only [(1, {j - 1})]"
            for j in range(1, 4)
        ]
        assert dp404([0, 1, 0]) == far_row
        hits = infer._probe_plan.cache_info().hits
        assert dp404([0, 0, 0]) == []
        assert dp404([0, 1, 0]) == far_row
        assert infer._probe_plan.cache_info().hits == hits + 2


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

        reads = []
        real_read = classify._read_source

        def read(*args):
            reads.append(args)
            return real_read(*args)

        monkeypatch.setattr(classify, "probe_footprint", probe)
        monkeypatch.setattr(classify, "_read_source", read)
        classify.PLAN_MEMO.clear()
        return lambda: (len(reads), len(probes))

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

    def test_the_memo_is_bounded(self, spies, tmp_path, monkeypatch):
        import importlib.util

        from repro.analysis import classify

        monkeypatch.setattr(classify.PLAN_MEMO, "maxsize", 64)

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
            assert len(classify.PLAN_MEMO) <= 64
        assert spies() == (200, 200)
        assert len(classify.PLAN_MEMO) == 64
        # an evicted class is simply read again
        assert classify_app(module.App0(), _RowChainDag(3, 5)).vectorizable
        assert spies()[0] == 201
