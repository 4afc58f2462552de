"""The decimation queue as a state machine.

Hypothesis drives a ``Decimator`` through greedy steps, forced heap
compactions, vertex moves followed by a queue rebuild, and explicit
refreshes, on perturbed octahedra and icospheres up to level 2, under
every cost kind (``gb`` and ``gb_qe`` with an atom set, the rest
without). After every rule it checks what the queue promises:

- each edge has at most one live entry;
- each live entry is its edge's fresh ``Decimator.candidate``,
  placement and cost, bit for bit;
- no live entry names a retired slot or a non-edge;
- the mesh validates as a closed manifold and keeps χ = 2.

Liveness is ``Decimator._live``, the check the queue pops and compacts
by; only :func:`queued` reads the layout of the entries and slots.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from decimesh import validate
from decimesh.costs import COST_KINDS
from decimesh.decimate import DecimationConfig, Decimator
from decimesh.gb import Atom
from decimesh.shapes import icosphere, octahedron

from conftest import bits

RADIUS = 5.0

# a draw that picks a live vertex by its rank
PICK = st.integers(0, 2**16)


def queued(dec):
    """The live entries of ``dec``'s queue as (a, b, triangle, placement,
    cost): the edge, the triangle that holds its slot, and what was
    queued for it."""
    n = len(dec.mesh.vertices)
    return [(*divmod(key, n), slot // 3, tuple(dec._points[slot].tolist()), cost)
            for cost, key, stamp, slot in filter(dec._live, dec._heap)]


def live_vertex(mesh, pick):
    live = mesh.live_vertex_ids()
    return int(live[pick % len(live)])


class QueueMachine(RuleBasedStateMachine):
    kind = "qe"

    @initialize(level=st.sampled_from([-1, 0, 1, 2]), seed=st.integers(0, 2**16))
    def build(self, level, seed):
        """A perturbed octahedron (level -1) or icosphere, and its queue."""
        kind = self.kind
        mesh = octahedron(RADIUS) if level < 0 else icosphere(level, radius=RADIUS)
        rng = np.random.default_rng(seed)
        mesh.vertices += rng.normal(scale=0.02 * RADIUS, size=mesh.vertices.shape)
        atoms = None
        if kind in ("gb", "gb_qe"):
            atoms = [Atom(center=c, charge=1.0) for c in rng.normal(size=(6, 3))]
        self.dec = Decimator(mesh, DecimationConfig(kind, target_faces=4), atoms=atoms)
        self.dec.build_queue()

    @rule()
    def step(self):
        self.dec.step()

    @rule()
    def compact_then_step(self):
        """What ``step`` does once stale entries dominate the heap:
        compaction keeps exactly the live entries."""
        dec = self.dec
        live = len(queued(dec))
        dec._compact_heap()
        assert len(dec._heap) == live
        assert all(map(dec._live, dec._heap))
        dec.step()

    @rule(pick=PICK, offset=st.tuples(*[st.floats(-0.2, 0.2)] * 3))
    def move_then_rebuild(self, pick, offset):
        mesh = self.dec.mesh
        mesh.vertices[live_vertex(mesh, pick)] += offset
        self.dec.build_queue()

    @rule(pick=PICK)
    def refresh(self, pick):
        self.dec.refresh(live_vertex(self.dec.mesh, pick))

    @invariant()
    def queue_is_fresh(self):
        dec = self.dec
        mesh = dec.mesh
        stats = validate(mesh)
        assert stats.is_closed_manifold and stats.euler_characteristic == 2
        edges = set(mesh.edges())
        live_tris = set(mesh.live_triangle_ids().tolist())
        entries = queued(dec)
        assert len({(a, b) for a, b, *_ in entries}) == len(entries)
        for a, b, t, point, cost in entries:
            assert (a, b) in edges
            assert t in live_tris and {a, b} <= set(mesh.triangle(t))
            fresh = dec.candidate(a, b)
            assert fresh is not None
            assert bits([*fresh[0], fresh[1]]) == bits([*point, cost])


@pytest.mark.parametrize("kind", COST_KINDS)
def test_queue_state_machine(kind):
    machine = type(f"QueueMachine_{kind}", (QueueMachine,), {"kind": kind})
    # fixed examples and no example database: the same cases on every run
    run_state_machine_as_test(machine, settings=settings(
        max_examples=10, stateful_step_count=10, deadline=None, derandomize=True,
        database=None))
