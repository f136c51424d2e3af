"""RetryPolicy semantics and the ambient fault-scenario context."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultScenario, LinkFail, RetryPolicy
from repro.context import active
from repro.faults import install
from repro.faults.retry import NO_RETRY


class TestRetryPolicy:
    def test_exponential_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=10e-6, multiplier=2.0)
        assert policy.delay(1) == pytest.approx(10e-6)
        assert policy.delay(2) == pytest.approx(20e-6)
        assert policy.delay(3) == pytest.approx(40e-6)

    def test_allows_retry_counts_the_first_try(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows_retry(1)
        assert policy.allows_retry(2)
        assert not policy.allows_retry(3)

    def test_no_retry_fails_fast(self):
        assert not NO_RETRY.allows_retry(1)
        assert NO_RETRY.delay(1) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="base_delay"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ConfigurationError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError, match="1-based"):
            RetryPolicy().delay(0)


class TestAmbientContext:
    def test_default_is_none(self):
        assert active().faults is None

    def test_install_and_restore(self):
        scenario = FaultScenario(events=(LinkFail(link="1-3", at=0.0),))
        with install(scenario) as installed:
            assert installed is scenario
            assert active().faults is scenario
        assert active().faults is None

    def test_nesting_restores_outer(self):
        outer = FaultScenario(events=(LinkFail(link="1-3", at=0.0),))
        inner = FaultScenario(events=(LinkFail(link="0-1", at=0.0),))
        with install(outer):
            with install(inner):
                assert active().faults is inner
            assert active().faults is outer

    def test_installing_none_shields_inner_code(self):
        scenario = FaultScenario(events=(LinkFail(link="1-3", at=0.0),))
        with install(scenario):
            with install(None):
                assert active().faults is None
            assert active().faults is scenario

    def test_restores_on_exception(self):
        scenario = FaultScenario(events=(LinkFail(link="1-3", at=0.0),))
        with pytest.raises(RuntimeError):
            with install(scenario):
                raise RuntimeError("boom")
        assert active().faults is None
