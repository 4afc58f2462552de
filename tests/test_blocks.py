import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decimesh import blocks
from decimesh.errors import NumericalError

from conftest import block_budget, cores


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 50), max_size=40),
    budget=st.integers(1, 120),
)
def test_term_blocks_are_the_longest_runs_under_budget(sizes, budget):
    with block_budget(budget):
        runs = list(blocks.term_blocks(np.cumsum(sizes, dtype=np.int64)))
    assert [i for start, stop in runs for i in range(start, stop)] == list(range(len(sizes)))
    for start, stop in runs:
        assert stop - start == 1 or sum(sizes[start:stop]) <= budget
        assert stop == len(sizes) or sum(sizes[start:stop + 1]) > budget


def test_worker_error_is_raised_on_calling_thread():
    def work(draws, scratch):
        for _ in draws:
            pass
        if threading.current_thread() is not threading.main_thread():
            raise NumericalError("from a worker")
        return scratch

    before = threading.active_count()
    with cores(3), pytest.raises(NumericalError, match="from a worker"):
        blocks.share_out(work, list(range(10)), list)
    assert threading.active_count() == before
