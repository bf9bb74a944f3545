"""Exact-rational calculus for polyhedral divisors and torus actions.

Cones and polyhedra with synchronized dual representations, divisors with
polyhedral coefficients on desk-scale bases, the torus-action upgrade and
complexity-one downgrade constructions, total-coordinate-ring divisors, and
upgrades of homogeneous toric deformations.  Integral data (rays, normals,
lattice maps) is stored as int, rational points and values as Fractions;
no floats anywhere.
"""

__version__ = "0.1.0"

from .base import (
    INF,
    BaseVariety,
    CurveFunction,
    PositivityFlags,
    PrimeDivisorLabel,
    QDivisor,
    SectionSpace,
    ToricFunction,
    binomial_label,
    declared_label,
    degree,
    global_sections,
    is_principal,
    order_along,
    point_label,
    positivity,
    ray_label,
)
from .cox import CoxData, cox_correct, cox_raw, cox_sequence, cox_upgrade
from .deform import (
    DeformationInput,
    check_admissible,
    deformation_upgrade,
    family_base_fan,
    family_pdivisor,
    structure_map,
)
from .downgrade import (
    DowngradeContext,
    downgrade,
    downgrade_box_psi,
    dualize,
    fan_from,
    subdivision_of_dual,
)
from .lattice import (
    Lattice,
    LatticeMap,
    multiplicity,
    primitive_and_multiplicity,
    smith_split,
)
from .pdivisor import (
    PolyhedralDivisor,
    PropernessReport,
    PullbackTriple,
    as_curve_divisor,
    principal_pdivisor,
    toric_downgrade,
)
from .polyhedra import (
    Cone,
    PolyhedralComplex,
    Polyhedron,
    chamber_complex,
    common_refinement,
    dual_cone,
    hull,
    linearity_regions,
    map_fiber_slice,
    minkowski_sum,
)
from .tvariety import (
    ConcavePL,
    DivisorialFan,
    PLDivisorMap,
    SupportFunction,
    TInvariantDivisor,
    box_and_psi,
    contraction_free_refinement,
    graded_sections,
    invariant_prime_divisors,
    is_basepoint_free,
    principal_invariant_divisor,
    psi0_pdivisor,
    sharpness,
    sum_psi,
    support_functions,
)
from .upgrade import (
    InvariantPDivisorOnFan,
    UpgradeResult,
    correct_pic_z,
    resolve_toric,
    upgrade,
    upgrade_coefficients,
    upgrade_tailcone,
)
