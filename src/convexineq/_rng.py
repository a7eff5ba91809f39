"""Counter-based random number streams.

Every stochastic routine in this package draws from a Philox generator keyed
by ``(seed, tag)`` where the tag packs a purpose code, a repetition index, and
a chunk index.  Philox is counter-based: streams with distinct keys are
independent, and a stream's output depends only on its key, never on how many
other streams were consumed before it.  That makes every estimate in the
package reproducible bit-for-bit regardless of evaluation order or worker
count.

:func:`chunked` makes the chunks of one large request concurrently, on the
calling thread and one helper per further usable CPU (:func:`usable_cpus`).
Each chunk's stream and its rows of the result are fixed by its index, so
the output is the same whatever the thread count, and at most one chunk per
working thread is held beside the result.

Every purpose code lives in the one :class:`Purpose` table below, which
keeps the codes distinct: two call sites sharing a user-facing seed and a
code would make logically independent estimates reuse the same stream.  A
code's value is part of every stream it keys, so values never change.
"""

from __future__ import annotations

import enum
import os
import threading

import numpy as np

# Samples are generated in fixed-size chunks so that parallel and serial
# generation of the same request produce identical output.
CHUNK = 65536

_MASK64 = (1 << 64) - 1


@enum.unique
class Purpose(enum.IntEnum):
    """The purpose code of each call site family, grouped by module."""

    # sampling
    SAMPLE_DIRECT = 1
    SAMPLE_CHAIN = 2
    SAMPLE_CHECK = 9
    # geometry
    VOLUME_MC = 6
    SPHERE_MESH = 7
    # isotropy
    ISO_FIT = 10
    ISO_VALIDATE = 11
    ISO_VOLUME = 12
    ISO_NET = 13
    ISO_CERT = 14
    RATIO_VOLUME_B = 21
    RATIO_VOLUME_K = 22
    CENTERED_CHECK = 23
    ENTROPY_VOLUME_K = 24
    ENTROPY_VOLUME_B = 25
    # transport
    EMPIRICAL_W = 30
    TCI_ENTROPY = 31
    TCI_W = 32
    # functional
    TRIG = 46
    # concentration
    TAU = 51
    AUDIT_MEAN_K = 53
    AUDIT_MEAN_B = 54
    AUDIT_SQ_K = 55
    AUDIT_SQ_B = 56
    AUDIT_ENTROPY = 57
    AUDIT_LK = 58
    AUDIT_TAU = 59
    AUDIT_W1 = 60
    AUDIT_ISO_CHECK = 61
    # corpora
    CORPUS_OT = 70
    CORPUS_SINKHORN = 71
    CORPUS_NESTED = 72
    # acceptance
    CRITERION_ENTROPY = 80
    CRITERION_ENTROPY_MC = 81
    CRITERION_ISO = 82
    CRITERION_AFFINE = 83
    CRITERION_AFFINE_L = 84
    CRITERION_AUDIT = 85
    CRITERION_TAU = 86


def rng_for(seed: int, purpose: int, rep: int = 0, chunk: int = 0) -> np.random.Generator:
    """Return the Philox stream for one (seed, purpose, rep, chunk) cell.

    ``purpose`` occupies the top byte of the tag, ``rep`` the next 24 bits,
    ``chunk`` the low 32 bits, so the three indices never collide.
    """
    if not (0 <= purpose < 256):
        raise ValueError(f"purpose code out of range: {purpose}")
    if rep < 0 or chunk < 0:
        raise ValueError("rep and chunk must be nonnegative")
    tag = ((purpose << 56) | ((rep & 0xFFFFFF) << 32) | (chunk & 0xFFFFFFFF)) & _MASK64
    return np.random.Generator(np.random.Philox(key=[seed & _MASK64, tag]))


def child_seed(seed: int, purpose: int, rep: int = 0) -> int:
    """Derive an integer seed for a nested routine that takes its own seed.

    The derived value is itself drawn from the parent's Philox stream, so
    nested estimators stay independent of each other and of the parent.
    """
    g = rng_for(seed, purpose, rep)
    return int(g.integers(0, 2**63 - 1))


def usable_cpus() -> int:
    """The CPUs this process may run on; every thread pool in the package is
    sized from it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def chunked(seed: int, purpose: int, rep: int, total: int, make):
    """Generate ``total`` rows in CHUNK-sized pieces with per-chunk streams.

    ``make(generator, count)`` must return an array whose leading dimension is
    ``count``, and must share no mutable state between calls.  Chunk i draws
    from its own stream (seed, purpose, rep, i) and fills rows
    [i * CHUNK, i * CHUNK + count) of the result, so its rows depend neither
    on the chunks made before it nor on which thread makes it.  Chunk 0 is
    made first and fixes the result's shape and dtype; a single chunk is
    returned as it is.  The others are handed out one at a time from a
    shared index to the calling thread and to one helper thread per further
    usable CPU (none when one CPU or one remaining chunk leaves nothing to
    share), each copying its chunk into the result allocated after the
    first, so at most one chunk per working thread is held beside the
    result.  The first exception raised by ``make`` stops the handing-out
    and is re-raised once every helper has finished.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    first = make(rng_for(seed, purpose, rep, 0), min(CHUNK, total))
    if total <= CHUNK:
        return first
    out = np.empty((total,) + first.shape[1:], dtype=first.dtype)
    out[:CHUNK] = first
    del first
    count = -(-total // CHUNK)
    lock = threading.Lock()
    errors = []
    todo = iter(range(1, count))

    def work():
        while True:
            with lock:
                idx = None if errors else next(todo, None)
            if idx is None:
                return
            start = idx * CHUNK
            take = min(CHUNK, total - start)
            try:
                out[start:start + take] = make(rng_for(seed, purpose, rep, idx), take)
            except BaseException as exc:  # re-raised by the calling thread below
                with lock:
                    errors.append(exc)
                return

    helpers = []
    try:
        for _ in range(min(usable_cpus(), count - 1) - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]
    return out
