"""freedecay: rapid-decay certificates and free-product state machinery
for finite-dimensional and discretized C*-probability spaces."""

__version__ = "0.1.0"

from .algebra import (  # noqa: F401
    AlgebraElement,
    AlgebraError,
    MatrixBlockAlgebra,
    center,
    dn_norm,
    l2_inner,
    l2_norm,
    onb_complement,
    op_norm,
    state,
)
from .measure import (  # noqa: F401
    AtomicMeasureError,
    CompactMeasure,
    MeasureError,
    OrthoPolySequence,
    gauss_discretize,
    ortho_polys,
    sup_norm,
)
from .freeword import (  # noqa: F401
    AvitzourConditionError,
    FreeElement,
    FreeProductAmbient,
    Letter,
    avitzour_phi,
    avitzour_shape_check,
    free_state,
    l2_inner_free,
    normalize,
    phi_conjugation,
)
from .fock import (  # noqa: F401
    ResourceCapError,
    TruncatedFock,
    fock_dimension,
    moment_norm_estimate,
    norm_lower_bound,
    vacuum_expectation,
)
from .khintchine import (  # noqa: F401
    HomogeneousWordElement,
    kh_bracket,
    rx_check,
    sr_norm,
    tr_bracket,
)
from .rdcert import (  # noqa: F401
    ConstantFiltration,
    Filtration,
    FreeProductFiltration,
    MeasureDegreeFiltration,
    RDReport,
    classify_abelian,
    find_avitzour_triple,
    fit_exponent,
    orthogonality_hypotheses,
    rd_report,
)
