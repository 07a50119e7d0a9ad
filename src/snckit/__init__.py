"""Dual complexes of SNC divisors and the finitely generated shadows of
negative K-theory.

The layers, bottom up: exact integer linear algebra (``intmat``), finitely
generated abelian groups (``abgroup``), chain complexes and spectral pages
(``chaincx``), divisor combinatorics with blowups (``snc``), the KH report
assembly (``khasm``), the NK correction (``nk``), and a JSON CLI (``cli``).
"""

from .abgroup import (
    FgAbGroup,
    Hom,
    compose,
    direct_sum,
    presentation_matrix,
    subquotient,
)
from .chaincx import (
    ChainComplex,
    SpectralPage,
    SupportViolationError,
    cohomology,
    e2_page,
)
from .intmat import IntMatrix, SmithForm, smith_normal_form
from .khasm import (
    KhReport,
    PicardInput,
    PicardLevel,
    TorusDescriptor,
    kh_report,
    ns_analysis,
)
from .nk import DuBoisTable, KReport, k_report
from .snc import (
    BlowupRecord,
    DualComplex,
    SncDivisor,
    blowup_point_on_double_curve,
    blowup_stratum_component,
    find_bad_intersections,
    resolve_to_simplicial,
    validate_snc,
)

__version__ = "0.1.0"

__all__ = [
    "BlowupRecord",
    "ChainComplex",
    "DuBoisTable",
    "DualComplex",
    "FgAbGroup",
    "Hom",
    "IntMatrix",
    "KReport",
    "KhReport",
    "PicardInput",
    "PicardLevel",
    "SmithForm",
    "SncDivisor",
    "SpectralPage",
    "SupportViolationError",
    "TorusDescriptor",
    "blowup_point_on_double_curve",
    "blowup_stratum_component",
    "cohomology",
    "compose",
    "direct_sum",
    "e2_page",
    "find_bad_intersections",
    "k_report",
    "kh_report",
    "ns_analysis",
    "presentation_matrix",
    "resolve_to_simplicial",
    "smith_normal_form",
    "subquotient",
    "validate_snc",
]
