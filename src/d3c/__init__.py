"""Coded distributed computing: scheme construction, coded shuffle with
exact bit accounting, tradeoff analytics, fractional-target planning, and a
verifying execution engine."""

from .analytics import (
    CornerPoint,
    TradeoffCurve,
    build_curve,
    c_star,
    corner_load,
    g_r,
    lstar_formula,
    optimal_load_cdc,
    query_load,
)
from .bits import BitString
from .combinatorics import (
    BatchIndex,
    GroupIndex,
    batch_size,
    binomial,
    enum_omega,
    enum_pi,
    enum_subsets,
)
from .composer import (
    CompositePlan,
    GroupSpec,
    minimal_files,
    plan_for_target,
)
from .engine import (
    Corpus,
    ExecutionReport,
    FunctionSuite,
    default_suite,
    execute,
    generate_corpus,
    oracle,
)
from .errors import (
    D3CError,
    DecodeError,
    DivisibilityError,
    ExecutionError,
    InternalConsistencyError,
    InvalidParameterError,
)
from .scheme import (
    BasicScheme,
    IvaId,
    LoadReport,
    SchemeParams,
    build_basic_scheme,
    build_cdc_scheme,
    default_iva_bits,
    make_params,
    measure_computation,
    measure_storage,
)
from .shuffle import (
    MulticastSignal,
    build_signals,
    decode_node,
    run_shuffle,
)

__version__ = "0.1.0"
