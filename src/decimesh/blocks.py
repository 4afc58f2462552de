"""What the blocked kernels share: the one term budget, which each
kernel reads from this module at call time so that one patch reaches
them all, the one block cutter and the one worker pool. Nothing here
runs at import."""

import os
from threading import Thread

import numpy as np

# Terms per block: 256 KB per float array of a block. G_pol's exact bins
# need blocks of at most 2**26 terms, so that each block's bin sums of
# 27- and 26-bit mantissa halves stay below 2**53, exact in float64.
BUDGET = 2**15


def term_blocks(terms):
    """(start, stop) of the consecutive runs of items that a blocked
    kernel works on, from the running total ``terms`` of the items'
    terms: each run holds at most ``BUDGET`` terms, or one item."""
    start = 0
    while start < len(terms):
        spent = terms[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(terms, spent + BUDGET, side="right")))
        yield start, stop
        start = stop


def cores():
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def share_out(work, blocks, scratch):
    """Run ``work(draws, scratch())`` on min(cores, len(blocks)) workers
    that draw from one shared iterator ``draws`` over the list
    ``blocks``, and return their results. Each draw is one ``next`` on a
    list iterator, which holds the interpreter lock throughout, so every
    block is drawn once. The calling thread makes every worker's scratch
    arrays, so they come from its heap and not from one per thread, and
    is itself one of the workers: one block or one core runs inline.
    Every thread started is joined before the call returns, and a
    worker's error is raised on the calling thread."""
    draws = iter(blocks)
    n_workers = min(cores(), len(blocks))
    results = [None] * n_workers
    errors = []

    def run(i, arrays):
        try:
            results[i] = work(draws, arrays)
        except BaseException as exc:  # raised again below
            errors.append(exc)

    threads = [Thread(target=run, args=(i, scratch())) for i in range(1, n_workers)]
    for thread in threads:
        thread.start()
    try:
        results[0] = work(draws, scratch())
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results
