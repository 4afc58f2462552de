"""Large-input memory check: build gb_qe queues on the 81,920-face
level-6 sphere and hold to fixed bounds the atom ball query with 200
atoms (16 MB) and the candidate chunks' atom sums with 10,000 atoms
(8 MB), both one block at a time; then build a qe queue on it and bound
what the Decimator keeps (42 MB: the store, the heap entries and the
arrays by corner slot). Traced with tracemalloc. Run from the
repository root:

    PYTHONPATH=src python .github/scripts/large_memory.py
"""

import tracemalloc

import numpy as np

from decimesh.decimate import DecimationConfig, Decimator
from decimesh.shapes import icosphere


def traced(dec, name):
    """Wrap method ``name`` of ``dec``; returns the list of the
    traced peaks of its calls, each above what was allocated
    when the call began, what it stores included."""
    method, peaks = getattr(dec, name), []

    def run(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = method(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    setattr(dec, name, run)
    return peaks


mesh = icosphere(6, radius=10.0)
assert mesh.n_faces == 81920
for n_atoms, name, bound in ((200, "_query_balls", 16e6), (10_000, "_sum_chunk", 8e6)):
    rng = np.random.default_rng(7)
    directions = rng.normal(size=(n_atoms, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    atoms = directions * 8.0 * rng.random((n_atoms, 1)) ** (1 / 3)
    config = DecimationConfig(cost_kind="gb_qe", target_faces=1000)
    dec = Decimator(mesh, config, atoms=atoms)
    peaks = traced(dec, name)
    tracemalloc.start()
    dec.build_queue()
    tracemalloc.stop()
    print(f"{name} traced peak with {n_atoms} atoms: {max(peaks) / 1e6:.1f} MB")
    assert max(peaks) < bound, peaks

tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
dec = Decimator(mesh, DecimationConfig(cost_kind="qe", target_faces=1000))
dec.build_queue()
kept, peak = (m - start for m in tracemalloc.get_traced_memory())
tracemalloc.stop()
print(f"qe queue of {len(dec._heap)} entries kept {kept / 1e6:.1f} MB, "
      f"traced peak {peak / 1e6:.1f} MB")
assert kept < 42e6, kept
