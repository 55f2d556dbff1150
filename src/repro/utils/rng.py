"""Random-number-generator plumbing.

Every stochastic routine in the package accepts either a seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy).
This module centralises that normalisation so experiment scripts can fix
a single integer seed and get reproducible tables.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def check_seed(seed: int) -> int:
    """Validate an integer seed; returns it as a Python ``int``.

    A seed is a non-negative integer (Python or numpy).  Booleans are
    refused with ``TypeError`` although Python counts ``True`` as 1, and
    negative integers with ``ValueError``, the error
    ``np.random.default_rng`` raises for them.  Seeded paths that never
    build a generator (the backbone's hash-keyed stable top-up) refuse
    the same seeds as those that do.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"expected seed, Generator or None, got {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"expected non-negative integer seed, got {int(seed)}")
    return int(seed)


def ensure_rng(rng: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Normalise ``rng`` into a :class:`numpy.random.Generator`.

    - ``None`` → a fresh generator seeded from OS entropy,
    - an ``int`` → ``np.random.default_rng(seed)`` (:func:`check_seed`),
    - a ``Generator`` → returned unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(check_seed(rng))


def spawn_rngs(rng: "int | np.random.Generator | None", count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Used by the variance protocol (paper section 6.3), where the same
    estimator is re-run many times with independent randomness.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]
