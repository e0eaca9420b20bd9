import io
import json

import fodesolve.gammafn
import fodesolve.verify
from fodesolve.operators import SampleSeries
from fodesolve.verify import run_checks, run_verify


class TestRunChecks:
    def test_all_pass(self):
        results = [r for r in run_checks()]
        assert results and all(r.passed for r in results)

    def test_every_check_reports_measured_and_bound(self):
        for r in run_checks():
            assert r.measured and isinstance(r.measured, str)
            assert r.bound and isinstance(r.bound, str)

    def test_expected_battery_is_present(self):
        names = {r.name for r in run_checks()}
        for expected in ("gamma-reference-points", "causality",
                         "determinism", "benchmark-cross-solver",
                         "series-vs-direct-inversion"):
            assert expected in names


class TestRunVerify:
    def test_table_output(self):
        stream = io.StringIO()
        assert run_verify(stream=stream) == 0
        text = stream.getvalue()
        assert "all checks passed" in text
        assert "gamma-reference-points" in text
        assert "measured" in text

    def test_json_output(self):
        stream = io.StringIO()
        assert run_verify(json_output=True, stream=stream) == 0
        payload = json.loads(stream.getvalue())
        assert payload["passed"] is True
        names = [c["name"] for c in payload["checks"]]
        assert len(names) == len(set(names))

    def test_injected_fault_is_detected(self, monkeypatch):
        # poison the gamma function; the reference-point check must notice
        real = fodesolve.gammafn.gamma

        def skewed(x):
            return real(x) * (1.0 + 1e-6)

        monkeypatch.setattr(fodesolve.gammafn, "gamma", skewed)
        stream = io.StringIO()
        assert run_verify(stream=stream) == 3
        text = stream.getvalue()
        assert "CHECKS FAILED" in text
        failing = [ln for ln in text.splitlines()
                   if "gamma-reference-points" in ln]
        assert failing and "FAIL" in failing[0]

    def test_non_causal_operator_is_detected(self, monkeypatch):
        # an operator whose every output also sees the last sample
        real = fodesolve.verify.apply_operator

        def peeking(z, mu):
            out = real(z, mu)
            return SampleSeries(out.h, out.values + z.values[-1])

        monkeypatch.setattr(fodesolve.verify, "apply_operator", peeking)
        [causality] = [r for r in run_checks() if r.name == "causality"]
        assert not causality.passed
        assert causality.measured == "prefix differs for mu=-0.7"
