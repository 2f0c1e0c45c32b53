"""Blocking token-bucket rate limiter shared by provider clients.

The bucket holds at most one token and refills continuously at `rate`
tokens per second, so it is kept as the time its next token is ready. (A
fractional token count can fall short of 1 by a rounding error and ask
for a sleep too short to move the clock.) acquire() must re-check after
sleeping: another thread may have taken the token that the sleep was
waiting for, so a single sleep-then-take is not enough under contention.
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
        self._interval = 1.0 / rate
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._ready = clock()

    def acquire(self) -> None:
        """Block until a token is available, and take it."""
        while True:
            with self._lock:
                now = self._clock()
                if now >= self._ready:
                    self._ready = now + self._interval
                    return
                wait = self._ready - now
            self._sleep(wait)
