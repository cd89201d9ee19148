"""Deterministic 64-bit generator for disturbance sampling.

The stdlib Mersenne generator would work, but its state is large and its
float path has changed across CPython versions in the past. This generator
is a dozen lines of fixed integer arithmetic, so identical seeds give
identical draws on every platform (README "Determinism" says what else a
trajectory's bits depend on).
"""

_MASK = (1 << 64) - 1


class SplitMix64:
    """Public-domain splitmix64 stream; one u64 of state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def uniform(self) -> float:
        # 53 mantissa bits, [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53
