"""Numerical study of bounded point derivations for analytic Lipschitz
functions on planar Swiss-cheese domains."""

from .geometry import (
    AnnularSectorRegion,
    ClippedPiece,
    ConeSpec,
    Disk,
    DiskRegion,
    GeometryError,
    Ray,
    SwissCheeseDomain,
    annulus_complement,
    annulus_minus_cone_region,
    annulus_radii,
    validate_cone,
    verify_interior_cone,
)
from .content import (
    ContentEstimate,
    ContentError,
    disjoint_disk_content,
    greedy_cover_upper,
)
from .criterion import (
    BPD_SUFFICIENT,
    DIVERGENT_UPPER_BOUND,
    INCONCLUSIVE,
    CriterionReport,
    RoadrunnerFamily,
    lord_ofarrell_series,
    parametric_verdict,
    threshold_radius_ratio,
)
from .lipschitz import (
    GalleryError,
    GalleryFunction,
    SeminormEstimate,
    build_test_gallery,
    conjugate_function,
    disk_cauchy_transform,
    little_lip_modulus,
    seminorm_estimate,
)
from .contour import (
    Arc,
    ContourError,
    ContourPath,
    DecompositionReport,
    LemmaCheckReport,
    QuadratureResult,
    Segment,
    ToleranceError,
    annular_decomposition,
    build_annular_piece,
    build_keyhole,
    full_circle,
    integrate_contour,
    kernel_seminorm_ratio,
    lemma_cauchy_bound_check,
    quotient_via_cauchy,
)
from .experiments import (
    CONVERGED,
    NOT_CONVERGED,
    FunctionalSweepReport,
    LimitExperimentReport,
    functional_sweep,
    hole_hugging_curve,
    nontangential_limit,
    tangential_probe,
)

__version__ = "0.1.0"
