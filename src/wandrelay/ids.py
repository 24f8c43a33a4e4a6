"""ULID-style message identifiers.

26-character Crockford base32 strings: 48 bits of millisecond timestamp
followed by 80 bits of entropy, so ids sort lexicographically by creation
time. The timestamp counts from the Unix epoch, so no id is made for an
earlier time. The entropy source is injectable; the simulator passes a seeded
RNG to keep whole runs reproducible.
"""

from __future__ import annotations

import random
from datetime import datetime, timezone

_ALPHABET = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _encode(value: int, length: int) -> str:
    chars = []
    for _ in range(length):
        chars.append(_ALPHABET[value & 0x1F])
        value >>= 5
    return "".join(reversed(chars))


class IdFactory:
    """Callable producing unique, time-ordered message ids.

    With a seed the sequence is a pure function of (seed, timestamps); without
    one, entropy comes from the default urandom-backed RNG.
    """

    def __init__(self, seed: int | None = None):
        self._rng = random.Random(seed) if seed is not None else random.SystemRandom()
        self._last: tuple[int, int] | None = None

    def __call__(self, created_at: datetime) -> str:
        seconds = created_at.timestamp()
        if seconds < 0:  # a negative count would encode as its low 50 bits and sort after every later id
            raise ValueError(f"no message id for {created_at.isoformat()}, before the Unix epoch")
        millis = int(seconds * 1000)
        entropy = self._rng.getrandbits(80)
        # Bump entropy monotonically if two ids land on the same millisecond,
        # so id order always follows issue order.
        if self._last is not None and self._last[0] == millis and entropy <= self._last[1]:
            entropy = self._last[1] + 1
        self._last = (millis, entropy)
        return _encode(millis, 10) + _encode(entropy, 16)
