"""RetryPolicy: bounded, seeded, deadline-aware retries around fallible calls."""

from __future__ import annotations

import pytest

from repro.reliability import (
    DeadlineExceeded,
    FaultPlan,
    RetryPolicy,
    default_read_policy,
    inject,
)


def _flaky(failures: int, error=OSError):
    """A callable failing ``failures`` times before returning its call count."""
    calls = {"n": 0}

    def fn():
        calls["n"] += 1
        if calls["n"] <= failures:
            raise error(f"transient #{calls['n']}")
        return calls["n"]

    fn.calls = calls
    return fn


def _no_sleep():
    slept = []
    return slept, slept.append


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        slept, sleep = _no_sleep()
        policy = RetryPolicy(attempts=3, base_delay_s=0.01, seed=0, sleep=sleep)
        assert policy.call(_flaky(2)) == 3
        assert len(slept) == 2

    def test_exhausted_attempts_reraise_last_error(self):
        slept, sleep = _no_sleep()
        policy = RetryPolicy(attempts=3, base_delay_s=0.0, seed=0, sleep=sleep)
        with pytest.raises(OSError, match="transient #3"):
            policy.call(_flaky(99))
        assert len(slept) == 2  # one delay per retry, none after the last

    def test_give_up_on_fails_immediately(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.0, seed=0,
                             give_up_on=(FileNotFoundError,), sleep=lambda _: None)
        fn = _flaky(99, error=FileNotFoundError)
        with pytest.raises(FileNotFoundError):
            policy.call(fn)
        assert fn.calls["n"] == 1

    def test_unlisted_errors_propagate_immediately(self):
        fn = _flaky(99, error=ValueError)
        with pytest.raises(ValueError):
            RetryPolicy(attempts=5, seed=0, sleep=lambda _: None).call(fn)
        assert fn.calls["n"] == 1

    def test_deadline_budget_raises_instead_of_sleeping(self):
        policy = RetryPolicy(attempts=5, base_delay_s=10.0, deadline_s=0.05,
                             seed=0, sleep=lambda _: pytest.fail("must not sleep"))
        with pytest.raises(DeadlineExceeded, match="transient #1"):
            policy.call(_flaky(99))

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.1, multiplier=2.0,
                             max_delay_s=0.3, jitter=0.0, seed=0)
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_jitter_stream_is_seeded(self):
        make = lambda seed: RetryPolicy(attempts=6, base_delay_s=0.1, jitter=0.25,
                                        seed=seed)
        assert list(make(5).delays()) == list(make(5).delays())
        assert list(make(5).delays()) != list(make(6).delays())
        for delay in make(5).delays():
            assert 0.075 <= delay  # within the +/-25% band of the schedule

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-0.1)

    def test_default_read_policy_gives_up_on_missing_files(self):
        policy = default_read_policy()
        fn = _flaky(99, error=FileNotFoundError)
        with pytest.raises(FileNotFoundError):
            policy.call(fn)
        assert fn.calls["n"] == 1


class TestRetryIntegration:
    def test_checkpoint_read_survives_transient_faults(self, tmp_path, make_world):
        """Two injected transient read errors cost retries, not the load."""
        from repro.models import build_model
        from repro.nn import load_checkpoint, save_checkpoint

        world = make_world()
        model = build_model("textcnn_s", world.config)
        path = str(tmp_path / "model.bin")
        save_checkpoint(model, path)
        plan = FaultPlan().fail("io.read", times=2, error=OSError("flaky disk"))
        clone = build_model("textcnn_s", world.config)
        with inject(plan):
            load_checkpoint(clone, path)
        assert plan.fired == 2
        assert clone.state_dict().keys() == model.state_dict().keys()


class TestRetryEdgeCases:
    """Degenerate budgets, subclass precedence, and replay determinism."""

    def test_zero_deadline_fails_before_any_sleep(self):
        slept, sleep = _no_sleep()
        policy = RetryPolicy(attempts=5, base_delay_s=0.01, deadline_s=0.0,
                             seed=0, sleep=sleep)
        fn = _flaky(failures=10)
        with pytest.raises(DeadlineExceeded, match="deadline of 0.000s"):
            policy.call(fn)
        assert fn.calls["n"] == 1  # one attempt, zero retries
        assert slept == []

    def test_negative_deadline_behaves_like_zero(self):
        slept, sleep = _no_sleep()
        policy = RetryPolicy(attempts=3, base_delay_s=0.0, jitter=0.0,
                             deadline_s=-1.0, seed=0, sleep=sleep)
        with pytest.raises(DeadlineExceeded):
            policy.call(_flaky(failures=10))
        assert slept == []

    def test_single_attempt_policy_never_sleeps(self):
        slept, sleep = _no_sleep()
        policy = RetryPolicy(attempts=1, seed=0, sleep=sleep)
        with pytest.raises(OSError):
            policy.call(_flaky(failures=10))
        assert slept == []
        assert list(policy.delays()) == []

    def test_give_up_on_wins_over_retry_on_for_subclasses(self):
        """FileNotFoundError is an OSError; the give-up clause is checked
        first, so the subclass short-circuits even though its base retries."""
        policy = RetryPolicy(attempts=5, retry_on=(OSError,),
                             give_up_on=(FileNotFoundError,), seed=0,
                             sleep=lambda _: None)
        fn = _flaky(failures=10, error=FileNotFoundError)
        with pytest.raises(FileNotFoundError):
            policy.call(fn)
        assert fn.calls["n"] == 1

    def test_give_up_on_matches_subclasses_of_its_entries(self):
        class Fatal(RuntimeError):
            pass

        class MoreFatal(Fatal):
            pass

        policy = RetryPolicy(attempts=5, retry_on=(RuntimeError,),
                             give_up_on=(Fatal,), seed=0, sleep=lambda _: None)
        fn = _flaky(failures=10, error=MoreFatal)
        with pytest.raises(MoreFatal):
            policy.call(fn)
        assert fn.calls["n"] == 1
        # The base RuntimeError still retries as configured.
        assert policy.call(_flaky(failures=2, error=RuntimeError)) == 3

    def test_jitter_is_deterministic_across_plan_reset_replays(self, tmp_path):
        """Replaying the same fault plan with the same policy seed reproduces
        the exact backoff schedule — chaos runs are rerunnable bit-for-bit."""
        path = tmp_path / "flaky.txt"
        path.write_text("payload")

        def read():
            from repro.reliability.faults import fault_point
            fault_point("retry.replay")
            return path.read_text()

        plan = FaultPlan(seed=9).fail("retry.replay", times=3,
                                      error=OSError("blip"))
        schedules = []
        for _ in range(2):
            plan.reset()
            slept, sleep = _no_sleep()
            policy = RetryPolicy(attempts=5, base_delay_s=0.01, jitter=0.5,
                                 seed=21, sleep=sleep)
            with inject(plan):
                assert policy.call(read) == "payload"
            assert plan.fired == 3
            assert len(slept) == 3
            schedules.append(tuple(slept))
        assert schedules[0] == schedules[1]
        assert len(set(schedules[0])) == 3  # jitter actually varies per retry
