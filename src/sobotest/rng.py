"""Counter-based random streams.

Every stochastic routine in the package derives its generator here, so a
(base seed, index...) key always yields the same stream regardless of
execution order or worker scheduling.
"""

from __future__ import annotations

import numpy as np

__all__ = ["STREAM_VERSION", "stream"]

# Version of the stream contract: which draws every (seed, key) yields and
# how the harness consumes them.  Bump it in any change that moves a row
# of the golden experiment CSVs under tests/golden/.
STREAM_VERSION = 2

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def stream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator keyed by a base seed and an index tuple."""
    entropy = int(seed) & _MASK64
    spawn = tuple(int(k) & _MASK32 for k in key)
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=spawn)
    return np.random.Generator(np.random.Philox(ss))
