"""Function-aware surface mesh decimation with Generalized Born energetics.

Collapse edges of a closed manifold triangle mesh under pluggable cost
functions (quadric, volumetric, triangle-quality, atom-aware), and
evaluate how much each policy perturbs the Generalized Born solvation
energy computed from the surface.
"""

__version__ = "0.1.0"

from .costs import (
    COST_KINDS,
    CollapseCandidate,
    GbCostParams,
    estimate_lambda,
    f_ac,
    f_gb,
    f_pb,
    f_vol,
    placement_for,
    vol_quadric,
)
from .decimate import (
    DecimationConfig,
    DecimationTrace,
    Decimator,
    decimate,
)
from .errors import DecimeshError, InputError, NumericalError
from .gb import (
    Atom,
    CENTROID_1PT,
    GBParams,
    KCAL_PER_E2_ANGSTROM,
    QuadratureRule,
    SYMMETRIC_3PT,
    born_radii,
    g_pol,
    mesh_quadrature,
    nonpolar_energy,
    quadrature_rule,
    surface_area,
)
from .grid import UniformGrid, grid_build
from .io import (
    load_atoms,
    load_mesh,
    parse_atoms,
    parse_obj,
    parse_off,
    save_atoms,
    save_mesh,
    write_atoms,
    write_off,
)
from .mesh import (
    CollapseCheck,
    CollapseRecord,
    EdgeStar,
    MeshStats,
    QualitySummary,
    TriangleMesh,
    can_collapse,
    collapse_edge,
    edge_star,
    quality_summary,
    validate,
)
from .quadrics import (
    HomogeneousPlane,
    Quadric,
    f_qe,
    minimize_quadric,
    vertex_quadric,
)
from .report import ComparisonReport, HarnessParams, ReportRow, resolve_targets, run_compare

__all__ = [
    "Atom",
    "CENTROID_1PT",
    "COST_KINDS",
    "CollapseCandidate",
    "CollapseCheck",
    "CollapseRecord",
    "ComparisonReport",
    "DecimationConfig",
    "DecimationTrace",
    "DecimeshError",
    "Decimator",
    "EdgeStar",
    "GBParams",
    "GbCostParams",
    "HarnessParams",
    "HomogeneousPlane",
    "InputError",
    "KCAL_PER_E2_ANGSTROM",
    "MeshStats",
    "NumericalError",
    "Quadric",
    "QuadratureRule",
    "QualitySummary",
    "ReportRow",
    "SYMMETRIC_3PT",
    "TriangleMesh",
    "UniformGrid",
    "born_radii",
    "can_collapse",
    "collapse_edge",
    "decimate",
    "edge_star",
    "estimate_lambda",
    "f_ac",
    "f_gb",
    "f_pb",
    "f_qe",
    "f_vol",
    "g_pol",
    "grid_build",
    "load_atoms",
    "load_mesh",
    "mesh_quadrature",
    "minimize_quadric",
    "nonpolar_energy",
    "parse_atoms",
    "parse_obj",
    "parse_off",
    "placement_for",
    "quadrature_rule",
    "quality_summary",
    "resolve_targets",
    "run_compare",
    "save_atoms",
    "save_mesh",
    "surface_area",
    "validate",
    "vertex_quadric",
    "vol_quadric",
    "write_atoms",
    "write_off",
]
