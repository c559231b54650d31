"""Tests for DPX10Config validation and dist construction."""

import pytest

from repro.core.config import DPX10Config
from repro.dist.dist import Dist
from repro.dist.region import Region2D
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_are_paper_faithful(self):
        cfg = DPX10Config()
        assert cfg.distribution == "block_cols"  # "spliced along with column"
        assert cfg.scheduler == "local"
        assert cfg.restore_manner == "discard"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nplaces": 0},
            {"engine": "gpu"},
            {"distribution": "hilbert"},
            {"scheduler": "greedy"},
            {"cache_size": -1},
            {"value_nbytes": 0},
            {"restore_manner": "replicate"},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DPX10Config(**kwargs)


class TestMakeDist:
    REGION = Region2D.of_shape(6, 6)

    def test_named_kind(self):
        cfg = DPX10Config(distribution="block_rows")
        d = cfg.make_dist(self.REGION, [0, 1])
        assert d.kind == "block_rows"

    def test_block_cyclic_uses_dist_block(self):
        cfg = DPX10Config(distribution="block_cyclic", dist_block=(2, 3))
        d = cfg.make_dist(self.REGION, [0, 1])
        assert d.kind == "block_cyclic"
        # cells inside one 2x3 block share a place
        assert d.place_of(0, 0) == d.place_of(1, 2)

    def test_custom_dist_wins(self):
        def factory(region, alive):
            return Dist.cyclic_rows(region, alive)

        cfg = DPX10Config(distribution="block_cols", custom_dist=factory)
        d = cfg.make_dist(self.REGION, [0, 1, 2])
        assert d.kind == "cyclic_rows"

    def test_custom_dist_skips_name_check(self):
        # an unknown name is fine when custom_dist is supplied
        cfg = DPX10Config(distribution="block_cols", custom_dist=lambda r, a: Dist.block_rows(r, a))
        assert cfg.make_dist(self.REGION, [0]).kind == "block_rows"
