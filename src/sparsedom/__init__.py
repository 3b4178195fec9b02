"""Sparse domination of discretized singular integral operators.

The package builds, for a kernel operator discretized on a uniform grid,
a sparse family of dilated cubes with disjoint witness sets and an
empirical constant such that the associated sparse averaging operator
dominates the operator pointwise on the window.  A verification suite
checks sparsity, domination, norm ratios, and weak-type threshold
profiles on concrete inputs.
"""

from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateInputError,
    DensityError,
    LeafCubeError,
    NumericError,
    ParameterError,
    SparsedomError,
    UndefinedRatioError,
    ValidationError,
)
from .grid import (
    CellSet,
    Cube,
    Grid,
    GridFunction,
    YoungFunction,
    avg_p,
    cube_integral,
    dilate,
    dyadic_children,
    orlicz_avg,
)
from .maximal import hl_maximal, oscillation, sharp_truncated
from .operators import (
    HormanderEstimate,
    Kernel,
    apply_restricted,
    dini_profile,
    hormander_constant,
    make_kernel,
    transpose_kernel,
)
from .sparse import (
    ConstantLedger,
    DominationResult,
    NodeRecord,
    PipelineConfig,
    SparseEntry,
    SparseFamily,
    build_sparse_domination,
    constant_from_records,
    local_cz_decomposition,
    partition_cover,
    support_box,
)
from .verify import (
    DominationReport,
    ProbeResult,
    SparsityReport,
    audit_coefficients,
    check_domination,
    check_sparsity,
    sharp_vs_maximal,
    sparse_lp_ratio,
    sparse_operator,
    t1_testing_probe,
    wq_profile,
)

__version__ = "0.1.0"
