"""Signed log-magnitude scalars.

Partition functions and Pfaffians here can span hundreds of orders of
magnitude and carry a sign, so every quantity of that kind is moved around
as (sign, log magnitude) instead of a raw float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as sign in {-1, 0, +1} and log of |value|.

    Zero is represented as sign == 0, log_magnitude == -inf.
    """

    sign: int
    log_magnitude: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0 and self.log_magnitude != float("-inf"):
            raise ValueError("zero must carry log_magnitude -inf")

    @staticmethod
    def zero() -> "SignedLog":
        return SignedLog(0, float("-inf"))

    @staticmethod
    def one() -> "SignedLog":
        return SignedLog(1, 0.0)

    @staticmethod
    def from_float(x: float) -> "SignedLog":
        if x == 0.0:
            return SignedLog.zero()
        if math.isnan(x):
            raise ValueError("cannot represent NaN")
        return SignedLog(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def sum(values) -> "SignedLog":
        """Sum as one compensated reduction: the nonzero values, scaled by
        the largest magnitude, are added exactly rounded by math.fsum. So
        cancellation costs no more than each scaled value's own rounding,
        and values that cancel exactly sum to exactly zero."""
        nonzero = [v for v in values if v.sign]
        if not nonzero:
            return SignedLog.zero()
        top = max(v.log_magnitude for v in nonzero)
        s = math.fsum(v.sign * math.exp(v.log_magnitude - top) for v in nonzero)
        if s == 0.0:
            return SignedLog.zero()
        return SignedLog(1 if s > 0 else -1, top + math.log(abs(s)))

    def to_float(self) -> float:
        # overflows to +-inf past ~exp(709); callers at scale keep the log form
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        s = self.sign * other.sign
        if s == 0:
            return SignedLog.zero()
        return SignedLog(s, self.log_magnitude + other.log_magnitude)
