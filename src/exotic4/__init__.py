"""exotic4: verification engine for torus-surgery constructions of exotic
smooth 4-manifolds.

Builds fundamental-group presentations for a two-parameter surgery family,
machine-checks the claimed fundamental groups by Todd-Coxeter coset
enumeration and Smith-normal-form abelianization, tracks characteristic
numbers and intersection forms, and reproduces the Seiberg-Witten
basic-class bookkeeping that distinguishes the smooth structures.
"""

__version__ = "0.1.0"

from .manifolds import (
    FamilyParams,
    apply_log_transform,
    build_Mkn,
    verify_complement,
    verify_pi1,
    with_complement_certificate,
    with_pi1_certificate,
)
from .sw import basic_classes, classify_homeomorphism, distinguish

__all__ = [
    "FamilyParams",
    "build_Mkn",
    "verify_pi1",
    "with_pi1_certificate",
    "verify_complement",
    "with_complement_certificate",
    "apply_log_transform",
    "classify_homeomorphism",
    "basic_classes",
    "distinguish",
    "__version__",
]
