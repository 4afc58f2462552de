"""Exception and warning types shared across the package.

Two broad families matter for the CLI exit-code mapping: ``InputError``
(bad files, invalid meshes, missing arguments -> exit 1) and
``NumericalError`` (a computation could not produce a trustworthy value
-> exit 2). Everything else derives from ``DecimeshError``.
:func:`_check_whole` and :func:`_check_real` are the one check of a
count and of a real-valued setting, and raise ``InvalidConfig``.
"""

import math
import numbers


class DecimeshError(Exception):
    """Base class for all package errors."""


class InputError(DecimeshError):
    """Invalid user-supplied input (files, meshes, arguments)."""


class NumericalError(DecimeshError):
    """A numerical computation failed or would be meaningless."""


# --- mesh topology / geometry ---------------------------------------------

class ValidationError(InputError):
    """Mesh failed a structural invariant check."""


class NonManifoldEdge(ValidationError):
    def __init__(self, edge, count):
        self.edge = tuple(edge)
        self.count = count
        super().__init__(f"edge {self.edge} has {count} incident triangles (expected 2)")


class NonManifoldVertex(ValidationError):
    def __init__(self, vertex, fans):
        self.vertex = vertex
        self.fans = fans
        super().__init__(
            f"vertex {vertex} is a pinch: its triangles form {fans} separate fans"
        )


class DuplicateTriangle(ValidationError):
    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        super().__init__(f"two triangles share the vertex set {self.vertices}")


class DegenerateTriangle(DecimeshError):
    """Triangle with repeated vertices or area below tolerance."""


class NotAnEdge(InputError):
    def __init__(self, v1, v2):
        self.edge = (v1, v2)
        super().__init__(f"({v1}, {v2}) is not an edge of the mesh")


class StarNotDisk(DecimeshError):
    """Ring walk around an edge failed; mesh is locally non-manifold."""


class CollapseRejected(DecimeshError):
    """Edge collapse precondition violated."""


class IsolatedVertex(DecimeshError):
    """Vertex has no nondegenerate incident triangle."""


# --- cost evaluation --------------------------------------------------------

class CandidateInfeasible(NumericalError):
    """Every candidate placement for an edge produced a degenerate triangle."""


# --- decimation driver ------------------------------------------------------

class MissingAtoms(InputError):
    """An atom-dependent cost or energy requested without an atom set."""


class InvalidInput(InputError):
    """Decimation input failed validation."""


class InvalidConfig(InputError, ValueError):
    """A decimation, cost, energy or report setting is out of range (a
    ``ValueError`` too, for callers that catch bad arguments by that
    type)."""


def _check_whole(name, value, low):
    """Raise ``InvalidConfig`` unless ``value`` is a whole number, as an
    int, a numpy integer or a whole float, at least ``low``."""
    try:
        whole = value >= low and int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise InvalidConfig(f"{name} must be a whole number at least {low}, got {value!r}")


def _check_real(name, value, positive, finite=True):
    """Raise ``InvalidConfig`` unless ``value`` is a real number (an int,
    a float or a numpy scalar, not a string or None) that is positive,
    or nonnegative when ``positive`` is false, and finite when
    ``finite``."""
    ok = isinstance(value, numbers.Real) and (value > 0 if positive else value >= 0)
    if not ok or (finite and value == math.inf):
        bound = "positive" if positive else "nonnegative"
        raise InvalidConfig(f"{name} must be {bound}{' and finite' if finite else ''}, "
                            f"got {value!r}")


# --- solvation energetics ---------------------------------------------------

class NonPositiveIntegral(NumericalError):
    """Born-radius surface integral came out non-positive.

    Happens when an atom lies outside the surface or the mesh normals
    point inward. ``atom_indices`` lists every offending atom.
    """

    def __init__(self, atom_indices):
        self.atom_indices = list(atom_indices)
        super().__init__(
            "non-positive Born integral for atom(s) "
            f"{self.atom_indices}; atom outside surface or mesh mis-oriented?"
        )


class AtomTooCloseToSurface(NumericalError):
    def __init__(self, atom_index, distance):
        self.atom_index = atom_index
        self.distance = distance
        super().__init__(
            f"atom {atom_index} is {distance:.3g} A from a quadrature node; "
            "the 1/r^4 integrand cannot be trusted"
        )


class InvalidRadius(NumericalError):
    def __init__(self, atom_index, value):
        self.atom_index = atom_index
        super().__init__(f"atom {atom_index} has non-positive Born radius {value!r}")


class InvalidAtom(InputError, ValueError):
    """An atom's centre is not finite (a ``ValueError`` too, as
    ``InvalidConfig`` is)."""


class RadiiMismatch(InputError, ValueError):
    """Born radii passed to ``g_pol`` do not number one per atom (a
    ``ValueError`` too, as ``InvalidConfig`` is)."""

    def __init__(self, n_radii, n_atoms):
        super().__init__(f"{n_radii} radii given for {n_atoms} atoms")


class InvalidCharge(InputError):
    def __init__(self, atom_index, value):
        self.atom_index = atom_index
        super().__init__(f"atom {atom_index} has non-finite charge {value!r}")


# --- file I/O ----------------------------------------------------------------

class ParseError(InputError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# --- warnings ----------------------------------------------------------------

class UnreferencedVertexWarning(UserWarning):
    """A vertex is not referenced by any triangle (not fatal)."""


class FlippedTriangleWarning(UserWarning):
    """An applied collapse reversed the normal of a ring triangle."""
