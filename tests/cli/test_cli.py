"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tsp"])

    def test_runtime_flags(self):
        args = build_parser().parse_args(
            ["lcs", "AB", "BA", "--places", "7", "--engine", "threaded",
             "--scheduler", "mincomm", "--cache-size", "9"]
        )
        assert args.places == 7
        assert args.engine == "threaded"
        assert args.scheduler == "mincomm"
        assert args.cache_size == 9


class TestCommands:
    def test_lcs(self, capsys):
        assert main(["lcs", "ABC", "DBC", "--places", "2"]) == 0
        out = capsys.readouterr().out
        assert "'BC'" in out and "length 2" in out

    def test_sw(self, capsys):
        assert main(["sw", "ACGT", "ACGT", "--places", "2"]) == 0
        assert "best local score: 8" in capsys.readouterr().out

    def test_nw(self, capsys):
        assert main(["nw", "GATTACA", "GCATGCT", "--places", "2"]) == 0
        assert "global score: -1" in capsys.readouterr().out

    def test_lps(self, capsys):
        assert main(["lps", "character", "--places", "2"]) == 0
        assert "length 5" in capsys.readouterr().out

    def test_knapsack(self, capsys):
        assert main(["knapsack", "--items", "6", "--capacity", "15"]) == 0
        out = capsys.readouterr().out
        assert "best value" in out and "chosen items" in out

    def test_matrix_chain(self, capsys):
        assert main(["matrix-chain", "--n", "5"]) == 0
        assert "minimal multiplications" in capsys.readouterr().out

    def test_egg_drop(self, capsys):
        assert main(["egg-drop", "--eggs", "2", "--floors", "36"]) == 0
        assert "8 trials" in capsys.readouterr().out

    def test_substring(self, capsys):
        assert main(["substring", "BANANAS", "KATANA"]) == 0
        assert "'ANA'" in capsys.readouterr().out

    def test_cyk(self, capsys):
        assert main(["cyk", "(()())"]) == 0
        assert "is derivable" in capsys.readouterr().out
        assert main(["cyk", "(()"]) == 0
        assert "NOT derivable" in capsys.readouterr().out

    def test_patterns_lists_all_eight(self, capsys):
        assert main(["patterns"]) == 0
        out = capsys.readouterr().out
        for name in ("grid", "diagonal", "row_chain", "column_chain",
                     "interval", "antidiag", "full_row", "triangular"):
            assert name in out

    def test_threaded_engine(self, capsys):
        assert main(["lcs", "ABCD", "BCDA", "--engine", "threaded"]) == 0
        assert "length 3" in capsys.readouterr().out

    def test_mp_engine_prints_the_inline_score(self, capsys):
        args = ["lcs", "ABCBDAB", "BDCABA", "--places", "2"]
        assert main(args + ["--engine", "inline"]) == 0
        inline = capsys.readouterr().out.splitlines()[0]
        assert main(args + ["--engine", "mp"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == inline
        assert inline == "LCS('ABCBDAB', 'BDCABA') = 'BCBA' (length 4)"

    def test_chaos_engines_are_checked_before_any_case_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.chaos.cli as chaos_cli

        swept = []
        monkeypatch.setattr(chaos_cli, "sweep", lambda **kw: swept.append(kw))
        replays = tmp_path / "replays"
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "run", "--engines", "inline,gpu",
                  "--replay-dir", str(replays)])
        assert exc.value.code == 2
        assert "unknown engine(s) gpu" in capsys.readouterr().err
        assert swept == [] and not replays.exists()
        assert main(["chaos", "run", "--engines", "inline,mp",
                     "--replay-dir", str(replays)]) == 0
        assert swept[0]["engines"] == ["inline", "mp"]


class TestFigureCommands:
    def test_fig12_small(self, capsys):
        assert main(["fig12", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out and "4 nodes" in out

    def test_fig13_small(self, capsys):
        assert main(["fig13", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "recovery seconds" in out and "normalized" in out
