"""Seeded, portable mini-batch sampling.

All solvers draw their activation sets through the helpers here so that a
given seed reproduces the same run bit for bit, and so that two solvers
fed the same seed consume identical random streams (the basis of the
simplified-scheme equivalence checks).
"""

import numpy as np

from .trace import check_count


def make_rng(seed):
    """A generator with a platform-independent stream from seed, an integer >= 0."""
    return np.random.Generator(np.random.PCG64(check_count("seed", seed, 0)))


def sample_without_replacement(rng, pool, k):
    """First k entries of a partial Fisher-Yates shuffle of pool.

    Step i swaps slot i with slot j_i = i + floor(u_i (n - i)), u_i from
    one rng.random(k) call.  The shuffle runs on positions only: a dict
    holds the slots that earlier swaps displaced, and pool is indexed once
    at the end, so pool itself is never written and one index buffer
    serves every iteration.  When k equals the pool size the full pool is
    returned in order and no randomness is consumed (a deterministic full
    batch).
    """
    n = pool.shape[0]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= %d, got %d" % (n, k))
    if k == n:
        return pool.copy()
    steps = np.arange(k)
    targets = (steps + (rng.random(k) * (n - steps)).astype(np.int64)).tolist()
    moved = {}
    get = moved.get
    picks = []
    for i, j in enumerate(targets):
        picks.append(get(j, j))
        moved[j] = get(i, i)
    return pool[picks]
