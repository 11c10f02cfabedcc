"""Internal helpers."""

import numpy as np


def as_seed_sequence(seed):
    """Accept an int, None, or an existing SeedSequence interchangeably.

    A SeedSequence is copied, not returned: ``spawn`` advances the object it
    is called on, so reusing the caller's would give every later call with
    the same seed different children.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)
    return np.random.SeedSequence(seed)
