import threading
import time

import pytest

from hypoflow import verify


class TestDrawPair:
    def test_one_thread_draws_in_turn(self):
        calls = []
        pair = verify._draw_pair(lambda s, k: calls.append((s, k)) or s, 2, 1, 1)
        assert pair == (2, 1)
        assert calls == [(2, 1), (1, 1)]

    @pytest.mark.parametrize("threads, fit, check", [(2, 1, 1), (3, 2, 1), (8, 4, 4)])
    def test_threads_are_shared(self, threads, fit, check):
        shares = {}

        def draw(seed, k):
            shares[seed] = (k, threading.current_thread() is threading.main_thread())
            return seed

        assert verify._draw_pair(draw, 2, 1, threads) == (2, 1)
        assert shares == {2: (fit, True), 1: (check, False)}

    def test_worker_joined_when_the_fit_draw_raises(self):
        done = []

        def draw(seed, k):
            if seed == 2:
                raise ValueError("fit draw failed")
            time.sleep(0.2)
            done.append(seed)

        with pytest.raises(ValueError, match="fit draw failed"):
            verify._draw_pair(draw, 2, 1, 2)
        assert done == [1]

    def test_check_draw_error_propagates(self):
        def draw(seed, k):
            if seed == 1:
                raise ValueError("check draw failed")
            return seed

        with pytest.raises(ValueError, match="check draw failed"):
            verify._draw_pair(draw, 2, 1, 2)
