"""Exact dimension arithmetic: natural numbers plus a few infinite levels.

Dimensions of kernels, spectral subspaces and ambient spaces are either
finite or one of the symbolic infinite levels aleph0 < aleph1 < aleph2.
Addition is absorptive (the larger infinite level wins), the order is
total, and there is deliberately no subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

MAX_ALEPH_LEVEL = 2


@dataclass(frozen=True, order=False)
class Finite:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative dimension {self.n}")

    def __repr__(self):
        return f"Finite({self.n})"


@dataclass(frozen=True, order=False)
class Aleph:
    level: int

    def __post_init__(self):
        if not 0 <= self.level <= MAX_ALEPH_LEVEL:
            raise ValueError(f"aleph level {self.level} outside 0..{MAX_ALEPH_LEVEL}")

    def __repr__(self):
        return f"Aleph({self.level})"


Cardinal = Union[Finite, Aleph]

# Finite(n) for 0 <= n < _SMALL_TOP, built once: most bucket counts are
# small, and a Finite is immutable, so one instance per value serves every
# measure.
_SMALL_TOP = 1024
_SMALL = tuple(Finite(n) for n in range(_SMALL_TOP))

ZERO = _SMALL[0]
ONE = _SMALL[1]
ALEPH0 = Aleph(0)


def finite(n: int) -> Finite:
    """Finite(n), shared for small n."""
    return _SMALL[n] if 0 <= n < _SMALL_TOP else Finite(n)


def as_cardinal(value: Union[int, Cardinal]) -> Cardinal:
    """Coerce a plain int to Finite; pass cardinals through."""
    if isinstance(value, (Finite, Aleph)):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not a cardinal: {value!r}")
    return finite(value)


def is_finite(c: Cardinal) -> bool:
    return isinstance(c, Finite)


def card_add(a: Cardinal, b: Cardinal) -> Cardinal:
    """Cardinal sum: finite addition, infinite levels absorb."""
    if isinstance(a, Finite) and isinstance(b, Finite):
        return Finite(a.n + b.n)
    if isinstance(a, Finite):
        return b
    if isinstance(b, Finite):
        return a
    return a if a.level >= b.level else b


def card_sum(items) -> Cardinal:
    total: Cardinal = ZERO
    for c in items:
        total = card_add(total, c)
    return total


def card_scale(c: Cardinal, k: int) -> Cardinal:
    """c added to itself k times (k a natural number)."""
    if k < 0:
        raise ValueError(f"negative multiplier {k}")
    if k == 0:
        return ZERO
    if isinstance(c, Finite):
        return Finite(c.n * k)
    return c


def card_le(a: Cardinal, b: Cardinal) -> bool:
    """Total order: every finite below every aleph, alephs by level."""
    if isinstance(a, Finite):
        return isinstance(b, Aleph) or a.n <= b.n
    return isinstance(b, Aleph) and a.level <= b.level


def card_lt(a: Cardinal, b: Cardinal) -> bool:
    return card_le(a, b) and a != b


def card_max(a: Cardinal, b: Cardinal) -> Cardinal:
    return b if card_le(a, b) else a


def card_min(a: Cardinal, b: Cardinal) -> Cardinal:
    return a if card_le(a, b) else b


def card_to_json(c: Cardinal):
    """Serialize: plain int, or "aleph<level>"."""
    if isinstance(c, Finite):
        return c.n
    return f"aleph{c.level}"


def card_from_json(value) -> Cardinal:
    """Parse an int or an "aleph<level>" string."""
    if type(value) is int:  # not a bool; finite(value), inlined for bucket counts
        return _SMALL[value] if 0 <= value < _SMALL_TOP else Finite(value)
    if isinstance(value, str) and value.startswith("aleph"):
        level = canonical_int(value[5:])
        if level is not None and level >= 0:
            return Aleph(level)
    raise ValueError(f"not a cardinal: {value!r}")


def canonical_int(text: str) -> Optional[int]:
    """The integer ``text`` spells in canonical form, else None: ASCII
    digits after an optional '-', without leading zeros, '+', spaces or '_',
    so that distinct strings never name the same integer."""
    try:
        n = int(text)
    except ValueError:
        return None
    return n if str(n) == text else None
