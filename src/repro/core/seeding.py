"""Deterministic seed derivation for independent random streams.

Every place the system forks off a random stream — one study cell, one
optimization pass, one in-flight evaluation — must get a seed that is
(a) stable across processes and ``PYTHONHASHSEED`` values, so parallel
and serial executions replay identically, and (b) well-separated from
every other stream, so measurement noise is not correlated across the
grid.  A plain ``base * K + index`` scheme fails (b): every cell of a
study grid would share the same few streams.

:func:`derive_seed` mixes a blake2b digest of the stream's *identity*
(any tuple of stringifiable parts) into the base seed.  The digest is a
pure function of the identity string, so the same (base, identity) pair
yields the same seed in any process, on any platform — the property the
evaluation executors rely on for order-independent replay of concurrent
runs (see :mod:`repro.core.executor`).
"""

from __future__ import annotations

import hashlib

#: Multiplier spreading distinct base seeds apart before the identity
#: digest is mixed in (prime, so consecutive bases cannot collide with
#: digest arithmetic).
_BASE_STRIDE = 10_007


def derive_seed(base_seed: int, *identity: object) -> int:
    """Derive an independent seed for the stream named by ``identity``.

    Parameters
    ----------
    base_seed:
        The user-facing seed of the whole run or study.
    identity:
        Any stringifiable parts naming the stream — e.g.
        ``("imbalance", "small", "bo")`` for a study cell or
        ``("eval", 17)`` for the 17th in-flight evaluation.

    Returns an int suitable for ``np.random.default_rng`` (non-negative
    whenever ``base_seed`` is non-negative).  The same (base_seed, identity) always maps to the same seed; any
    change to either part yields an unrelated stream.
    """
    label = "|".join(str(part) for part in identity)
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return base_seed * _BASE_STRIDE + int.from_bytes(digest, "big")
