"""Request parsing/validation and the app catalog's oracle consistency."""

import pytest

from repro.core.config import DPX10Config, ENGINES
from repro.serve.api import APPS, BadRequest, execute_job, parse_job_request


class TestParsing:
    def test_minimal_request_gets_defaults(self):
        req = parse_job_request({"app": "sw", "params": {"size": 32, "seed": 0}})
        assert req.tenant == "default"
        assert req.engine == "mp"
        assert req.nplaces == 4
        assert req.tile_shape is None
        assert req.use_cache is True
        assert req.faults == []
        assert req.pattern == "diagonal"

    def test_unknown_app_rejected(self):
        with pytest.raises(BadRequest):
            parse_job_request({"app": "tsp", "params": {"size": 8}})

    def test_bad_engine_rejected(self):
        with pytest.raises(BadRequest) as err:
            parse_job_request(
                {"app": "sw", "params": {"size": 8}, "engine": "gpu"}
            )
        # the 400 names the engines a job may ask for, from the one list
        assert str(ENGINES) in str(err.value)

    def test_nplaces_bounds(self):
        for bad in (0, 65, "four"):
            with pytest.raises(BadRequest):
                parse_job_request(
                    {"app": "sw", "params": {"size": 8}, "nplaces": bad}
                )

    def test_faults_require_server_opt_in(self):
        body = {
            "app": "sw",
            "params": {"size": 8},
            "faults": [{"place": 1, "at_fraction": 0.5}],
        }
        with pytest.raises(BadRequest):
            parse_job_request(body)
        req = parse_job_request(body, allow_faults=True)
        assert len(req.faults) == 1 and req.faults[0].place_id == 1

    def test_unknown_top_level_keys_are_rejected_by_name(self):
        body = {"app": "sw", "params": {"size": 8}, "use_cache": False}
        with pytest.raises(BadRequest, match="use_cache"):
            parse_job_request(body)
        del body["use_cache"]
        assert parse_job_request(dict(body, cache=False)).use_cache is False

    def test_soak_requests_bypass_the_cache(self):
        from repro.chaos.soak import SoakSpec, _request_body

        for faulted in (True, False):
            body = _request_body(SoakSpec(), "sw", "alice", 3, faulted, 1)
            assert parse_job_request(body, allow_faults=True).use_cache is False

    def test_cache_key_ignores_engine_and_faults(self):
        base = {"app": "sw", "params": {"size": 16, "seed": 3}}
        a = parse_job_request(dict(base, engine="mp", nplaces=2))
        b = parse_job_request(dict(base, engine="inline", nplaces=8))
        c = parse_job_request(
            dict(base, faults=[{"place": 1}]), allow_faults=True
        )
        assert a.cache_key == b.cache_key == c.cache_key

    def test_explicit_and_synthetic_params_normalize_apart(self):
        synth = parse_job_request({"app": "lcs", "params": {"size": 8, "seed": 0}})
        expl = parse_job_request({"app": "lcs", "params": {"a": "AC", "b": "CA"}})
        assert synth.cache_key != expl.cache_key


class TestCatalogOracles:
    """Every app's served score equals its serial oracle (inline engine)."""

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_inline_score_matches_oracle(self, app):
        req = parse_job_request(
            {"app": app, "params": {"size": 12, "seed": 5}, "engine": "inline"}
        )
        result = execute_job(req, DPX10Config(engine="inline", nplaces=2))
        assert result["score"] == APPS[app].oracle(req.params)
        assert result["app"] == app
        assert result["completions"] > 0
