"""Tests for the shared utilities (registry, rng, timer, BLAS threads)."""

import os
import time

import numpy as np
import pytest

from repro.utils import Registry, Timer, seeded_rng, spawn_rngs
from repro.utils.threads import (BLAS_ENV_VARS, BLAS_THREADS_ENV,
                                 apply_blas_thread_limit,
                                 blas_thread_budget, blas_thread_limit)


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("thing")

        @reg.register("a")
        def thing_a():
            return "a"

        assert reg.get("a") is thing_a
        assert "a" in reg
        assert reg.names() == ["a"]

    def test_duplicate_raises(self):
        reg = Registry("thing")
        reg.register("x")(object)
        with pytest.raises(KeyError):
            reg.register("x")(object)

    def test_unknown_raises_with_available(self):
        reg = Registry("thing")
        reg.register("known")(object)
        with pytest.raises(KeyError, match="known"):
            reg.get("unknown")

    def test_iteration_sorted(self):
        reg = Registry("thing")
        for name in ("c", "a", "b"):
            reg.register(name)(object)
        assert list(reg) == ["a", "b", "c"]


class TestRng:
    def test_seeded_deterministic(self):
        a = seeded_rng(42).random(5)
        b = seeded_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_spawn_independent(self):
        rngs = spawn_rngs(7, 3)
        assert len(rngs) == 3
        draws = [rng.random(4) for rng in rngs]
        # children differ from each other
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_deterministic(self):
        a = spawn_rngs(7, 2)[0].random(3)
        b = spawn_rngs(7, 2)[0].random(3)
        np.testing.assert_array_equal(a, b)


class TestTimer:
    def test_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        first = timer.total
        with timer:
            time.sleep(0.01)
        assert timer.total > first >= 0.01

    def test_minutes(self):
        timer = Timer()
        timer.total = 120.0
        assert timer.minutes == 2.0

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.total == 0.0

    def test_reset_inside_open_context(self):
        """reset() inside a `with` block must not break the exit path."""
        timer = Timer()
        with timer:
            timer.reset()  # seed code raised TypeError on __exit__
        assert timer.total == 0.0
        # the timer is still usable afterwards
        with timer:
            time.sleep(0.001)
        assert timer.total > 0.0


class TestBlasThreadBudget:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(BLAS_THREADS_ENV, "3")
        assert blas_thread_budget(workers=8) == 3

    def test_budget_divides_cores(self, monkeypatch):
        monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
        budget = blas_thread_budget(workers=10 ** 6)
        assert budget == 1                    # floor is one thread

    def test_limit_sets_and_restores_env(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with blas_thread_limit(2):
            for var in BLAS_ENV_VARS:
                assert os.environ[var] == "2"
        assert os.environ["OMP_NUM_THREADS"] == "7"
        assert "MKL_NUM_THREADS" not in os.environ

    def test_apply_is_persistent(self, monkeypatch):
        for var in BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        apply_blas_thread_limit(2)
        for var in BLAS_ENV_VARS:
            assert os.environ[var] == "2"
