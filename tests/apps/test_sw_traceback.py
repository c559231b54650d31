"""Tests for the Smith-Waterman alignment traceback."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.serial import sw_matrix
from repro.apps.smith_waterman import SWApp, solve_sw
from repro.core.config import DPX10Config

CFG = DPX10Config(nplaces=3)


def alignment_score(top: str, bottom: str) -> int:
    """Re-score an alignment under Figure 7's constants."""
    assert len(top) == len(bottom)
    score = 0
    for a, b in zip(top, bottom):
        if a == "-" or b == "-":
            score += SWApp.GAP_PENALTY
        elif a == b:
            score += SWApp.MATCH_SCORE
        else:
            score += SWApp.DISMATCH_SCORE
    return score


class TestTraceback:
    def test_perfect_match(self):
        app, _ = solve_sw("GATTACA", "GATTACA", CFG)
        assert app.alignment == ("GATTACA", "GATTACA")

    def test_local_region_extracted(self):
        app, _ = solve_sw("TTTACGTCC", "GGGACGTAA", CFG)
        assert app.alignment == ("ACGT", "ACGT")

    def test_no_similarity_empty_alignment(self):
        app, _ = solve_sw("AAAA", "TTTT", CFG)
        assert app.alignment == ("", "")

    def test_alignment_scores_the_reported_best(self):
        x, y = "ACACACTA", "AGCACACA"
        app, _ = solve_sw(x, y, CFG)
        top, bottom = app.alignment
        assert alignment_score(top, bottom) == app.best_score

    def test_alignment_pieces_are_substrings(self):
        x, y = "GGTTGACTA", "TGTTACGG"
        app, _ = solve_sw(x, y, CFG)
        top, bottom = app.alignment
        assert top.replace("-", "") in x
        assert bottom.replace("-", "") in y

    @settings(max_examples=20, deadline=None)
    @given(
        x=st.text(alphabet="ACGT", min_size=1, max_size=12),
        y=st.text(alphabet="ACGT", min_size=1, max_size=12),
    )
    def test_property_traceback_consistent(self, x, y):
        app, _ = solve_sw(x, y, CFG)
        top, bottom = app.alignment
        assert len(top) == len(bottom)
        assert alignment_score(top, bottom) == app.best_score == sw_matrix(x, y).max()
        assert top.replace("-", "") in x
        assert bottom.replace("-", "") in y


@settings(max_examples=30, deadline=None)
@given(
    x=st.text(alphabet="AC", min_size=1, max_size=14),
    y=st.text(alphabet="AC", min_size=1, max_size=14),
)
def test_the_best_cell_is_the_first_in_row_major_order(x, y):
    """Ties (frequent over a two-letter alphabet) go to the cell a
    whole-matrix argmax picks, so the alignment is the one it gives."""
    import numpy as np

    app, _ = solve_sw(x, y, CFG)
    scores = sw_matrix(x, y).astype(np.int64)
    bi, bj = np.unravel_index(int(np.argmax(scores)), scores.shape)
    assert app.best_score == int(scores[bi, bj])
    assert app.alignment == app._traceback(scores, int(bi), int(bj))
