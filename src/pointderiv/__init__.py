"""Numerical study of bounded point derivations for analytic Lipschitz
functions on planar Swiss-cheese domains."""

from .geometry import (
    ClippedPiece,
    ConeSpec,
    Disk,
    DiskRegion,
    GeometryError,
    Ray,
    SwissCheeseDomain,
    annulus_complement,
    validate_cone,
    verify_interior_cone,
)
from .content import (
    ContentError,
    disjoint_disk_content,
    greedy_cover_upper,
)
from .criterion import (
    BPD_SUFFICIENT,
    RoadrunnerFamily,
    lord_ofarrell_series,
    parametric_verdict,
    threshold_radius_ratio,
)
from .lipschitz import (
    GalleryError,
    GalleryFunction,
    build_test_gallery,
    conjugate_function,
    seminorm_estimate,
)
from .contour import (
    ContourError,
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
    functional_sweep,
    nontangential_limit,
)

__version__ = "0.1.0"
