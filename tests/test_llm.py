import os
import socket
import subprocess
import sys
import time
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rescue_triage
from rescue_triage import metrics
from rescue_triage.llm import (
    EndpointConfig,
    LengthMismatch,
    MissingFeature,
    PromptTemplate,
    TEMPLATE_DEFAULT,
    TEMPLATE_WITH_PREILLNESS,
    TransportError,
    Verdict,
    build_prompt,
    compare,
    parse_verdict,
    prompt_values_from_vector,
    query,
    query_many,
    transcript_verdicts,
)

from conftest import GOLDEN_PROMPT, REFERENCE_CASES


class TestBuildPrompt:
    def test_golden_sample_byte_exact(self):
        values = {
            "Systolic Blood Pressure": 170,
            "Respiratory Rate": 13,
            "Blood Circulation Normality": 1,
            "GCS": 15,
            "Pulse Rhythm": False,
            "Any Preillness": False,
            "Mental Sickness Possibility": False,
            "Psychiatric Syndrom Presence": False,
            "Alcoholic Possibility": False,
            "Intoxication Possibility": False,
        }
        assert build_prompt(values, TEMPLATE_WITH_PREILLNESS) == GOLDEN_PROMPT

    def test_nine_key_variant_from_vector(self):
        fv, _, _ = REFERENCE_CASES["Test2"]
        prompt = build_prompt(prompt_values_from_vector(fv), TEMPLATE_DEFAULT)
        lines = prompt.split("\n")
        assert len(lines) == 11  # nine key lines, one blank, the instruction
        assert "'Any Preillness'" not in prompt
        assert lines[0] == "'Systolic Blood Pressure': 100,"
        assert lines[8] == "'Intoxication Possibility': False"
        assert lines[9] == ""

    def test_all_reference_cases_render(self):
        for name, (fv, _, _) in REFERENCE_CASES.items():
            prompt = build_prompt(prompt_values_from_vector(fv), TEMPLATE_DEFAULT)
            assert prompt.count("\n") == 10

    def test_missing_feature(self):
        with pytest.raises(MissingFeature):
            build_prompt({"GCS": 15}, TEMPLATE_DEFAULT)

    def test_empty_template_is_config_error(self):
        with pytest.raises(ValueError):
            PromptTemplate(())

    def test_injective_over_values(self):
        fv, _, _ = REFERENCE_CASES["Test3"]
        base_values = prompt_values_from_vector(fv)
        base = build_prompt(base_values, TEMPLATE_DEFAULT)
        for key in TEMPLATE_DEFAULT.keys:
            values = dict(base_values)
            values[key] = (not values[key]) if isinstance(values[key], bool) else values[key] + 1
            assert build_prompt(values, TEMPLATE_DEFAULT) != base

    @settings(max_examples=100, deadline=None)
    @given(st.integers(50, 250), st.integers(5, 40), st.booleans())
    def test_prompt_stability(self, bp, rr, flag):
        values = {"Systolic Blood Pressure": bp, "Respiratory Rate": rr, "Pulse Rhythm": flag}
        template = PromptTemplate(("Systolic Blood Pressure", "Respiratory Rate", "Pulse Rhythm"))
        a = build_prompt(values, template)
        b = build_prompt(dict(values), template)
        assert a == b
        assert "\r" not in a


class TestParseVerdict:
    def test_simple_true(self):
        assert parse_verdict("TRUE") == Verdict.TRUE

    def test_last_token_wins(self):
        assert parse_verdict("false... but true") == Verdict.TRUE

    def test_empty_ambiguous(self):
        assert parse_verdict("") == Verdict.AMBIGUOUS

    def test_no_token_ambiguous(self):
        assert parse_verdict("insufficient data") == Verdict.AMBIGUOUS

    def test_trailing_sentence_verdict(self):
        text = "The patient cannot be diagnosed as psychiatric. False."
        assert parse_verdict(text) == Verdict.FALSE

    def test_negation_flips(self):
        assert parse_verdict("not true") == Verdict.FALSE
        assert parse_verdict("never false") == Verdict.TRUE

    def test_case_insensitive_standalone(self):
        assert parse_verdict("The answer is True.") == Verdict.TRUE
        assert parse_verdict("untrue") == Verdict.AMBIGUOUS

    @pytest.mark.parametrize("verdict", [Verdict.TRUE, Verdict.FALSE])
    def test_roundtrip_on_rendered_tokens(self, verdict):
        assert parse_verdict(verdict.value) == verdict


class TestCompare:
    def test_reference_cases_single_mismatch(self):
        names = list(REFERENCE_CASES)
        ml = [REFERENCE_CASES[n][1] for n in names]
        llm = [Verdict.TRUE if REFERENCE_CASES[n][2] else Verdict.FALSE for n in names]
        report = compare(ml, llm, names)
        assert report.mismatch_count == 1
        mismatched = [r.case_id for r in report.rows if not r.match]
        assert mismatched == ["Test1"]
        assert report.agreement_rate == pytest.approx(5 / 6)

    def test_identical_vectors_no_mismatch(self):
        report = compare([True, False], [Verdict.TRUE, Verdict.FALSE])
        assert report.mismatch_count == 0
        assert report.agreement_rate == 1.0

    def test_ambiguous_counts_and_itemized(self):
        report = compare([True], [Verdict.AMBIGUOUS], ["c1"])
        assert report.mismatch_count == 1
        assert report.ambiguous_cases == ("c1",)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            compare([True], [])

    def test_length_mismatch_is_the_metrics_class(self):
        assert LengthMismatch is metrics.LengthMismatch

    def test_reference_labels_carried_through(self):
        report = compare([True, False], [Verdict.TRUE, Verdict.TRUE],
                         ["a", "b"], reference_labels=[1, 0])
        assert report.rows[0].reference is True
        assert report.rows[1].reference is False
        assert asdict(report)["rows"][0]["reference"] is True


class TestQuery:
    def test_contract_fields_pinned(self, stub_server):
        url, state = stub_server
        cfg = EndpointConfig(base_url=url, model="test-model", timeout=5.0, retries=0)
        verdict = query("hello", cfg)
        assert verdict.verdict == Verdict.TRUE
        assert verdict.raw_response == "true"
        assert verdict.latency > 0.0
        req = state.requests[0]
        assert req["path"] == "/api/generate"
        assert req["payload"] == {"model": "test-model", "prompt": "hello", "stream": False}

    def test_false_with_prose(self, stub_server):
        url, state = stub_server
        state.responses = ["The patient cannot be diagnosed as psychiatric. False."]
        cfg = EndpointConfig(base_url=url, timeout=5.0, retries=0)
        assert query("p", cfg).verdict == Verdict.FALSE

    def test_ambiguous_not_coerced(self, stub_server):
        url, state = stub_server
        state.responses = ["insufficient data"]
        cfg = EndpointConfig(base_url=url, timeout=5.0, retries=0)
        assert query("p", cfg).verdict == Verdict.AMBIGUOUS

    def test_retries_on_server_error(self, stub_server):
        url, state = stub_server
        state.fail_first = 2
        cfg = EndpointConfig(base_url=url, timeout=5.0, retries=2, backoff=0.01)
        assert query("p", cfg).verdict == Verdict.TRUE
        assert len(state.requests) == 3

    def test_retries_exhausted(self, stub_server):
        url, state = stub_server
        state.fail_first = 10
        cfg = EndpointConfig(base_url=url, timeout=5.0, retries=1, backoff=0.01)
        with pytest.raises(TransportError):
            query("p", cfg)

    def test_hard_timeout(self, stub_server):
        url, state = stub_server
        state.delay = 1.0
        cfg = EndpointConfig(base_url=url, timeout=0.15, retries=0)
        start = time.perf_counter()
        with pytest.raises(TransportError):
            query("p", cfg)
        assert time.perf_counter() - start < 2.0

    def test_options_passthrough(self, stub_server):
        url, state = stub_server
        cfg = EndpointConfig(base_url=url, timeout=5.0, retries=0, options={"temperature": 0.0})
        query("p", cfg)
        assert state.requests[0]["payload"]["options"] == {"temperature": 0.0}

    def test_query_many_preserves_order(self, stub_server):
        url, state = stub_server
        state.responses = ["true", "false", "true"]
        cfg = EndpointConfig(base_url=url, timeout=5.0, retries=0)
        verdicts = query_many(["a", "b", "c"], cfg, max_in_flight=1)
        assert [v.verdict for v in verdicts] == [Verdict.TRUE, Verdict.FALSE, Verdict.TRUE]

    def test_client_error_not_retried(self, stub_server):
        url, state = stub_server
        state.reply = (404, b"no such model: " + b"x" * 300)
        cfg = EndpointConfig(base_url=url, timeout=5.0, retries=2, backoff=0.01)
        with pytest.raises(TransportError) as err:
            query("p", cfg)
        assert len(state.requests) == 1
        assert str(err.value) == "generate endpoint returned 404: " + ("no such model: " + "x" * 300)[:200]

    @pytest.mark.parametrize("body", [b"not json", b'{"model": "m"}', b'{"response": null}'])
    def test_malformed_response(self, stub_server, body):
        url, state = stub_server
        state.reply = (200, body)
        cfg = EndpointConfig(base_url=url, timeout=5.0, retries=2, backoff=0.01)
        with pytest.raises(TransportError, match="^malformed generate response: "):
            query("p", cfg)
        assert len(state.requests) == 1

    def test_success_status_other_than_200(self, stub_server):
        url, state = stub_server
        state.reply = (204, b"")
        cfg = EndpointConfig(base_url=url, timeout=5.0, retries=2, backoff=0.01)
        with pytest.raises(TransportError, match="^generate endpoint returned 204: "):
            query("p", cfg)
        assert len(state.requests) == 1

    def test_refused_connection_retried_then_fails(self, monkeypatch):
        with socket.socket() as sock:  # bound, never listening: a closed port
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        cfg = EndpointConfig(base_url=f"http://127.0.0.1:{port}", timeout=5.0, retries=2, backoff=0.01)
        with pytest.raises(TransportError, match="^generate request failed after 3 attempts: "):
            query("p", cfg)
        assert sleeps == [0.01, 0.02]

    def test_runs_without_requests_installed(self, stub_server):
        url, _ = stub_server
        code = (
            "import sys\n"
            "sys.modules['requests'] = None\n"
            "import rescue_triage.cli\n"
            "from rescue_triage.llm import EndpointConfig, query\n"
            f"print(query('p', EndpointConfig(base_url={url!r}, timeout=5.0, retries=0)).verdict.value)\n"
        )
        src = os.path.dirname(os.path.dirname(rescue_triage.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "true"

    def test_importing_the_cli_leaves_the_http_modules_out(self):
        """They are imported where an endpoint is queried; a run that never
        queries one does not pay for them."""
        code = (
            "import sys\n"
            "import rescue_triage.cli\n"
            "print([m for m in ('http.client', 'urllib.request', 'urllib.error', 'concurrent.futures')"
            " if m in sys.modules])\n"
        )
        src = os.path.dirname(os.path.dirname(rescue_triage.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("overrides,message", [
        ({"retries": -1}, "retries must be at least 0, got -1"),
        ({"timeout": 0.0}, "timeout must be a positive number of seconds, got 0.0"),
        ({"timeout": float("nan")}, "timeout must be a positive number of seconds, got nan"),
        ({"backoff": -0.5}, "backoff must be a non-negative number of seconds, got -0.5"),
        ({"base_url": "localhost:11434"}, "base_url must be an http:// or https:// URL with a host, got 'localhost:11434'"),
        ({"base_url": "http://"}, "base_url must be an http:// or https:// URL with a host, got 'http://'"),
        ({"base_url": "ftp://localhost"}, "base_url must be an http:// or https:// URL with a host, got 'ftp://localhost'"),
    ], ids=["negative_retries", "zero_timeout", "nan_timeout", "negative_backoff", "schemeless_url", "url_without_host",
            "ftp_url"])
    def test_endpoint_settings_checked_when_built(self, overrides, message):
        with pytest.raises(ValueError) as err:
            EndpointConfig(**overrides)
        assert str(err.value) == message

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("RESCUE_TRIAGE_LLM_URL", "http://example:1234")
        monkeypatch.setenv("RESCUE_TRIAGE_LLM_MODEL", "other")
        cfg = EndpointConfig.from_env()
        assert cfg.base_url == "http://example:1234"
        assert cfg.model == "other"


class TestTranscript:
    def test_offline_verdicts(self):
        verdicts = transcript_verdicts(["true", "no idea", "False."])
        assert [v.verdict for v in verdicts] == [Verdict.TRUE, Verdict.AMBIGUOUS, Verdict.FALSE]


# live-endpoint check, quarantined: responses are non-deterministic, so this
# never gates a build. Enable with RESCUE_TRIAGE_LIVE_LLM=1 and a running server.
@pytest.mark.skipif(
    not os.environ.get("RESCUE_TRIAGE_LIVE_LLM"),
    reason="live endpoint checks are opt-in",
)
def test_live_endpoint_answers_something():
    cfg = EndpointConfig.from_env()
    verdict = query("Reply with true or false: is water wet?", cfg)
    assert verdict.raw_response
