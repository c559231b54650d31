"""The ``python -m repro analyze`` command end to end."""

import json

from repro.__main__ import main

MANIFEST = "ANALYZE_classes.json"


class TestAnalyzeAll:
    def test_shipped_apps_pass(self, capsys):
        assert main(["analyze", "--all"]) == 0
        out = capsys.readouterr().out
        assert "ANTIDIAG_WAVEFRONT" in out
        assert "ROW_SCAN_PREFIX" in out
        assert "-> ok" in out

    def test_default_is_all(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "lcs" in out and "cyk" in out

    def test_opaque_count_reported(self, capsys):
        # cyk, egg_drop, matrix_chain, viterbi; the DomainApp decoders
        # (msa3, tree_knapsack, tree_mis) vectorize via their domains
        assert main(["analyze", "--all"]) == 0
        assert "4 OPAQUE" in capsys.readouterr().out

    def test_single_app_with_kernel_dump(self, capsys):
        # lcs is ANTIDIAG: the flat-sweep kernel prints its prelude, its
        # general sweep variant and the variant interior tiles run
        assert main(["analyze", "--app", "lcs", "--dump-kernel"]) == 0
        out = capsys.readouterr().out
        assert "flat-sweep kernel" in out
        assert out.count("def _sweep(B2, _spans, _leaves):") == 2

    def test_interior_variant_stores_in_place(self, capsys):
        # sw's interior tiles run one factored max chain whose last
        # maximum writes the diagonal; the masked general variant does not
        assert main(["analyze", "--app", "sw", "--dump-kernel"]) == 0
        general, interior = capsys.readouterr().out.split("# interior variant")
        assert "out=B2[" not in general and "np.where" in general
        assert "np.where" not in interior
        assert "(np.maximum(_x3, _x4) + _L4), out=B2[_vd, _a:_b])" in interior

    def test_row_scan_kernel_dump(self, capsys):
        # mtp is ROW_SCAN_PREFIX: the prelude, then a batched per-row sweep
        # whose one scan call is the accumulate
        assert main(["analyze", "--app", "mtp", "--dump-kernel"]) == 0
        out = capsys.readouterr().out
        assert "row-scan kernel" in out
        assert "def _leaves(r0, c0, h, w):" in out
        assert "def _sweep(B2, _rows, _a, _b, _leaves, _S, _bufs):" in out
        general, interior = out.split("# interior variant")
        assert general.count("np.maximum.accumulate") == 1
        assert interior.count("np.maximum.accumulate") == 1
        assert "np.add(_data, _Sr, out=B2[:, _vd, _a:_b])" in interior

    def test_row_kernel_dump(self, capsys):
        # knapsack is ELEMENTWISE: the prelude, then a batched per-row
        # sweep whose weight shift comes from the row table
        assert main(["analyze", "--app", "knapsack", "--dump-kernel"]) == 0
        out = capsys.readouterr().out
        assert "# row kernel" in out
        assert "def _leaves(r0, c0, h, w):" in out
        assert "def _sweep(B2, _rows, _a, _b, _leaves):" in out
        assert "for _r, _vd, _d0 in _rows:" in out
        assert "compute_tile" not in out

    def test_ir_dump(self, capsys):
        assert main(["analyze", "--app", "knapsack", "--ir"]) == 0
        assert "compute(i, j):" in capsys.readouterr().out


class TestJson:
    def test_json_document_shape(self, capsys):
        assert main(["analyze", "--all", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["apps"]["sw"]["class"] == "ANTIDIAG_WAVEFRONT"
        assert doc["apps"]["viterbi"]["class"] == "OPAQUE"
        assert doc["apps"]["viterbi"]["codes"] == ["DP401"]


class TestManifest:
    def test_committed_manifest_matches(self, tmp_path, capsys, monkeypatch):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        rc = main(
            ["analyze", "--all", "--check-manifest", str(root / MANIFEST)]
        )
        assert rc == 0
        assert "DRIFT" not in capsys.readouterr().out

    def test_drift_fails(self, tmp_path, capsys):
        bad = {
            "apps": {
                "lcs": {"class": "OPAQUE", "codes": ["DP401"]},
            }
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(bad))
        rc = main(["analyze", "--app", "lcs", "--check-manifest", str(path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out
        assert "-> FAIL" in out

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        rc = main(
            [
                "analyze",
                "--app",
                "lcs",
                "--check-manifest",
                str(tmp_path / "nope.json"),
            ]
        )
        assert rc == 2
