"""Identification diagnostics and regularized 2SLS for network SAR models.

The package covers the full pipeline for social-interaction / spatial
autoregressive models with endogenous, contextual and spatially correlated
effects under group fixed effects: grouped sociomatrix handling, the model's
linear transforms, spectral identification diagnostics, instrument
construction, damped first-stage projection (Tikhonov, Landweber-Fridman,
principal components), data-driven tuning of the damping, estimation, and a
Monte Carlo harness.
"""

from .graphs import (GroupedNetwork, PanelData, build_block_diagonal,
                     generate_mc_network, lee_group_network, load_edge_csv,
                     load_network, load_node_csv, row_normalize)
from .transforms import (JProjector, ModelParams, reduced_form, row_sum_norm,
                         structural_residual)
from .identification import (IdentificationReport, Verdict, build_report,
                             distinct_eigenvalues, labelled_stack,
                             lee_reduced_coefficient, proposition1_check,
                             proposition2_rank_check)
from .instruments import (InstrumentSet, build_instruments, normalize_columns,
                          q1_roster, q2_roster)
from .regularization import (Scheme, Spectrum, apply_projector,
                             projector_traces, q_weights)
from .estimation import (EstimationResult, FirstStage, SingularSystemError,
                         assemble_z, bias_corrected_2sls, classical_2sls,
                         first_stage, preliminary_delta, preliminary_rho,
                         regularized_2sls)
from .selection import (SelectionResult, criterion_value, curve_to_csv,
                        default_grid, prepare_selection, s_hat, select_alpha,
                        select_from_context)
from .montecarlo import (ESTIMATOR_LABELS, ESTIMATORS, McConfig,
                         ReplicationResult, StudySummary, run_replication,
                         run_study, summarize)

__version__ = "0.1.0"
