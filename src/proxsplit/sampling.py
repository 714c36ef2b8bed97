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
    at the end, so pool itself is never written.  When k equals the pool
    size the full pool is returned in order and no randomness is consumed
    (a deterministic full batch).  k is an integer in [1, n]; DomainError
    otherwise.

    Step i picks the dict's entry at j_i (default j_i) and stores its
    entry at i (default i) under j_i.  A target is marked when it is below
    k (a later step reads that slot) or repeats (a later step targets it
    again).  Only the steps with a marked target are replayed through the
    dict, in order, and every entry they read was stored by a replayed
    step; every other step picks its own target, and what it stores is
    never read.  With k = 1000 of n = 49,749 about 40 steps are replayed;
    the marking is vectorized.
    """
    n = pool.shape[0]
    k = check_count("k", k, 1, n)
    if k == n:
        return pool.copy()
    steps = np.arange(k)
    targets = steps + (rng.random(k) * (n - steps)).astype(np.int64)
    marked = np.zeros(n, dtype=bool)
    marked[targets[targets < k]] = True
    # a repeated target keeps at most one of its steps in last
    last = np.empty(n, dtype=np.int64)
    last[targets] = steps
    marked[targets[last[targets] != steps]] = True
    replay = np.flatnonzero(marked[targets])
    moved = {}
    get = moved.get
    picks = []
    for i, j in zip(replay.tolist(), targets[replay].tolist()):
        picks.append(get(j, j))
        moved[j] = get(i, i)
    targets[replay] = picks
    return pool[targets]
