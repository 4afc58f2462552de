"""Exception and warning types shared across the package.

Two broad families matter for the CLI exit-code mapping: ``InputError``
(bad files, invalid meshes, missing arguments -> exit 1) and
``NumericalError`` (a computation could not produce a trustworthy value
-> exit 2). Everything else derives from ``DecimeshError``.
"""


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
    """Atom-dependent cost requested without an atom set."""


class InvalidInput(InputError):
    """Decimation input failed validation."""


class InvalidConfig(InputError, ValueError):
    """A decimation or cost setting is out of range (a ``ValueError``
    too, for callers that catch bad arguments by that type)."""


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
