"""Blocking token-bucket rate limiter shared by provider clients.

The bucket holds at most one token and refills continuously at `rate`
tokens per second. acquire() must re-check after sleeping: another thread
may have taken the token that the sleep was waiting for, so a single
sleep-then-take is not enough under contention.
"""
from __future__ import annotations

import threading
import time
from typing import Callable


class TokenBucket:
    def __init__(
        self,
        rate: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._rate = float(rate)
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._tokens = 1.0
        self._updated = clock()

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(1.0, self._tokens + elapsed * self._rate)
            self._updated = now

    def acquire(self, timeout: float | None = None) -> bool:
        """Block until a token is available; False if timeout expires first.
        timeout=0 takes a token only if one is available right now."""
        deadline = None if timeout is None else self._clock() + timeout
        while True:
            with self._lock:
                self._refill_locked()
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return True
                wait = (1.0 - self._tokens) / self._rate
            if deadline is not None:
                remaining = deadline - self._clock()
                if remaining <= 0 or wait > remaining:
                    return False
            self._sleep(wait)
