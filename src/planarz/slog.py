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

    def to_float(self) -> float:
        # overflows to +-inf past ~exp(709); callers at scale keep the log form
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        s = self.sign * other.sign
        if s == 0:
            return SignedLog.zero()
        return SignedLog(s, self.log_magnitude + other.log_magnitude)

    def __add__(self, other: "SignedLog") -> "SignedLog":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        big, small = (self, other) if self.log_magnitude >= other.log_magnitude else (other, self)
        d = small.log_magnitude - big.log_magnitude  # <= 0
        if self.sign == other.sign:
            return SignedLog(big.sign, big.log_magnitude + math.log1p(math.exp(d)))
        if d == 0.0:
            return SignedLog.zero()
        return SignedLog(big.sign, big.log_magnitude + math.log1p(-math.exp(d)))

    def __neg__(self) -> "SignedLog":
        return SignedLog(-self.sign, self.log_magnitude)
