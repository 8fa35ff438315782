"""Circle fibrations of 4-manifolds glued along 3-torus boundaries.

The computations live at the level of first homology of the boundary
3-torus: curves and essential tori are primitive (co)vectors in Z^3, pieces
carry framings and declared homology data, and every classification is
cross-checked by an independent Smith-normal-form homology computation.
"""

from .gluing import FibrationResult, GluedManifold, GluingMap, find_fibration, glue
from .invariants import (
    MissingH1Data,
    euler_characteristic_glued,
    h1_presentation,
    mayer_vietoris_h1,
)
from .lattice import (
    AbelianGroup,
    IntMatrix,
    NonPrimitive,
    NotUnimodular,
    SNFDecomposition,
    cokernel,
    content,
    cross,
    is_primitive,
    saturate,
    smith_normal_form,
)
from .manifold_files import (
    ManifoldFile,
    ManifoldFileError,
    parse_manifold_file,
    serialize_manifold_file,
)
from .pieces import (
    ExtensionCertificate,
    ExtensionObstructed,
    Piece,
    PieceKind,
    boundary_lambda,
    can_extend,
    extension_certificate,
    sample_piece,
    torus_times_disk,
)
from .surgery import (
    LensSpace,
    MeridianConditionViolated,
    NotCoprime,
    SurgerySpec,
    classify_double_disk_gluing,
    generalized_fs_surgery,
    lens_class,
    lens_equivalent,
    lens_normalize,
    obstruction_check,
    unknot_torus_surgery,
)
from .torus3 import (
    CurveClass,
    FibrationOfT3,
    ParallelCurves,
    TorusClass,
    act,
    canonical_torus_containing,
    contains,
    dual_curve,
    fibration_from_torus,
    torus_through,
)

__version__ = "0.1.0"
