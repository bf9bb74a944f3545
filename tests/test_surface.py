"""The public surface of `pdivisors`: one name per operation.

The names bound in the package, submodules left out, are the ones `pdiv`,
the benchmark and the paper's constructions use.  A name added or removed
here is a change of the public surface and shows in this list.
"""

from __future__ import annotations

import re
import types
from pathlib import Path

import pdivisors

SURFACE = [
    "BaseVariety", "ConcavePL", "Cone", "CoxData", "CurveFunction",
    "DeformationInput", "DivisorialFan", "DowngradeContext", "INF",
    "InvariantPDivisorOnFan", "Lattice", "LatticeMap", "PLDivisorMap",
    "PolyhedralComplex", "PolyhedralDivisor", "Polyhedron", "PositivityFlags",
    "PrimeDivisorLabel", "PropernessReport", "PullbackTriple", "QDivisor",
    "SectionSpace", "SupportFunction", "TInvariantDivisor", "ToricFunction",
    "UpgradeResult", "as_curve_divisor", "binomial_label", "box_and_psi",
    "chamber_complex", "check_admissible", "common_refinement",
    "contraction_free_refinement", "correct_pic_z", "cox_correct", "cox_raw",
    "cox_sequence", "cox_upgrade", "declared_label", "deformation_upgrade",
    "degree", "downgrade", "downgrade_box_psi", "dual_cone", "dualize",
    "family_base_fan", "family_pdivisor", "fan_from", "global_sections",
    "graded_sections", "hull", "invariant_prime_divisors", "is_basepoint_free",
    "is_principal", "linearity_regions", "map_fiber_slice", "minkowski_sum",
    "multiplicity", "order_along", "point_label", "positivity",
    "primitive_and_multiplicity", "principal_invariant_divisor",
    "principal_pdivisor", "psi0_pdivisor", "ray_label", "resolve_toric",
    "sharpness", "smith_split", "structure_map", "subdivision_of_dual",
    "sum_psi", "support_functions", "toric_downgrade", "upgrade",
    "upgrade_coefficients", "upgrade_tailcone",
]


def _public_names():
    return sorted(
        name
        for name, value in vars(pdivisors).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_public_names_are_pinned():
    assert len(SURFACE) == 77 and SURFACE == sorted(SURFACE)
    assert _public_names() == SURFACE


def test_benchmark_names_are_public():
    # every `pd.<name>` the benchmark reaches is bound in the package
    used = set()
    for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"):
        used |= set(re.findall(r"\bpd\.([A-Za-z_]\w*)", path.read_text()))
    assert len(used) > 20
    modules = {name for name, value in vars(pdivisors).items() if isinstance(value, types.ModuleType)}
    assert used <= set(SURFACE) | modules, sorted(used - set(SURFACE) - modules)
