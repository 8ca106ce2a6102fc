"""Nodal domains of eigenvectors of random graphs.

Samplers for G(n,p), random regular graphs and centered Bernoulli matrices;
dense symmetric eigendecomposition with fixed ordering and sign conventions;
weak/strong nodal domain computation with a brute-force oracle; closed-form
evaluation of the explicit tail-bound constants and the exceptional-vertex
bound k; and a seeded, thread-count-independent Monte-Carlo harness.
"""

__version__ = "0.1.0"

from .graph_core import (
    Graph,
    GraphParseError,
    RngStream,
    SamplingError,
    adjacency_matrix,
    connected_components,
    laplacian_matrix,
    read_graph,
    sample_gnp,
    sample_regular,
    sample_sym_xp_matrix,
    sample_xp_matrix,
    substream,
    write_graph,
)
from .spectral import Spectrum, eigendecompose, operator_norm
from .nodal import (
    DomainPartition,
    NodalCensus,
    NodalSummary,
    SignedFunction,
    brute_force_domains,
    nodal_census,
    nodal_summary,
    strong_nodal_domains,
    weak_nodal_domains,
)
from .bounds import (
    BoundParams,
    ConstantsResult,
    GridSpec,
    alpha_beta,
    c_constant,
    exceptional_bound_k,
    feasibility,
    kp_formula,
    reference_k,
    tail_constants,
)
from .experiments import (
    ExperimentReport,
    run_courant_report,
    run_fig1,
    run_fig2,
    run_gnp_scan,
    run_inner_product_check,
    run_linf_scan,
    run_neighborhood_fact,
    run_tail_mc,
    write_report_csv,
    write_report_json,
)

__all__ = [
    "Graph",
    "GraphParseError",
    "RngStream",
    "SamplingError",
    "adjacency_matrix",
    "connected_components",
    "laplacian_matrix",
    "read_graph",
    "sample_gnp",
    "sample_regular",
    "sample_sym_xp_matrix",
    "sample_xp_matrix",
    "substream",
    "write_graph",
    "Spectrum",
    "eigendecompose",
    "operator_norm",
    "DomainPartition",
    "NodalCensus",
    "NodalSummary",
    "SignedFunction",
    "brute_force_domains",
    "nodal_census",
    "nodal_summary",
    "strong_nodal_domains",
    "weak_nodal_domains",
    "BoundParams",
    "ConstantsResult",
    "GridSpec",
    "alpha_beta",
    "c_constant",
    "exceptional_bound_k",
    "feasibility",
    "kp_formula",
    "reference_k",
    "tail_constants",
    "ExperimentReport",
    "run_courant_report",
    "run_fig1",
    "run_fig2",
    "run_gnp_scan",
    "run_inner_product_check",
    "run_linf_scan",
    "run_neighborhood_fact",
    "run_tail_mc",
    "write_report_csv",
    "write_report_json",
    "__version__",
]
