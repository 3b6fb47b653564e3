"""Exact first-passage distributions for random walks on finite graphs.

Four interoperating engines compute hitting-time distributions, moments
and variances: the absorbing-chain recurrence on arbitrary graphs, a
character-sum engine on finite abelian groups, the trace recursion and
rational generating function on walk-regular graphs (whose one-pair
series is the absorbing chain's), and a uniformized continuous-time
engine, all cross-validated by brute-force and Monte Carlo oracles.
"""

from .errors import (
    GraphTooLargeError,
    HitwalkError,
    HypothesisError,
    InvalidParameterError,
    NotConnectedError,
    NotErgodicError,
    NumericalError,
    OracleTooLargeError,
    SingularMatrixError,
)
from .graphs import (
    Graph,
    TransitionKernel,
    build_complete,
    build_complete_bipartite,
    build_cycle,
    build_hypercube,
    build_path,
    build_torus_diagonal,
    build_torus_standard,
    cayley_d8,
    cayley_s3,
    parse_graph_spec,
    preset_graph,
    simple_walk_kernel,
)
from .hitting import (
    AbsorbingSystem,
    MomentReport,
    PmfTable,
    brute_pmf,
    closed_bipartite,
    closed_complete,
    closed_cycle,
    cycle_mean,
    lumped_absorbing,
    make_absorbing,
    moments,
    path_endpoint_pmf,
    pmf,
    return_second_moment,
)
from .abelian import (
    FiniteAbelianGroup,
    StepLaw,
    diag_torus_convolution_report,
    diag_torus_map,
    expected_hitting_abelian,
    fourier,
    fourier_pmf,
    inverse_fourier,
    variance_abelian,
)
from .spectral import MnSequence, RationalGF, gf_series, mn_sequence, rational_gf, trace_powers
from .ctime import CTimeEvaluation, ct_evaluate, ct_moments
from .montecarlo import SampleSummary, SimConfig, simulate

__version__ = "0.1.0"
