"""Discrete-time LTI primitives in the backward-shift operator q^-1.

Transfer functions are rational in q^-1 with a separate integer dead time;
their truncated impulse and step responses are plain 1-d arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .tlbo import finite, whole


@dataclass(frozen=True)
class DiscreteTransferFunction:
    """Rational transfer function b(q^-1)/a(q^-1) * q^-delay.

    Coefficients are listed in ascending powers of q^-1. The denominator is
    normalized so a0 = 1 on construction.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]
    delay: int = 0

    def __post_init__(self):
        num = tuple(float(b) for b in self.num)
        den = tuple(float(a) for a in self.den)
        if not num or not den:
            raise ValueError("numerator and denominator must be non-empty")
        if den[0] == 0.0:
            raise ValueError("leading denominator coefficient must be nonzero")
        delay = whole(self.delay, "delay")
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if den[0] != 1.0:
            a0 = den[0]
            num = tuple(b / a0 for b in num)
            den = tuple(a / a0 for a in den)
        for c in num + den:
            finite(c, "coefficient")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "delay", delay)

    def impulse_response(self, n: int) -> np.ndarray:
        """First n+1 impulse-response coefficients g(0..n).

        g(k) = b_{k-d} - sum_{i>=1} a_i g(k-i), with out-of-range b taken as 0;
        identical to long division of the rational function shifted by d.
        """
        if n < 0:
            raise ValueError(f"response length must be >= 0, got n={n}")
        x = np.zeros(n + 1)
        if self.delay <= n:
            m = min(len(self.num), n + 1 - self.delay)
            x[self.delay:self.delay + m] = self.num[:m]
        return lfilter([1.0], self.den, x)

    def step_response(self, n: int) -> np.ndarray:
        """Running sum of the impulse response, s(k) = sum_{i<=k} g(i)."""
        return np.cumsum(self.impulse_response(n))

