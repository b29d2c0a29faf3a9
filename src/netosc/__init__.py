"""Oscillation dynamics on directed networks.

Laplacian spectral machinery, first-order reformulations of the networked
wave equation, and doubled-space operators whose sparsity matches the
network's link structure.
"""

from . import doubled, dynamics, graph, sqrt_ops, symmetry
from .dynamics import (
    EnergyReport,
    FlamingIndicator,
    Trajectory,
    degree_centrality_energy,
    flaming_indicator,
    integrate_fundamental,
    integrate_wave,
    node_energy,
    product_form_solve,
    superpose,
)
from .graph import WeightedDigraph, build_matrices, from_edges, load_edge_list
from .sqrt_ops import OperatorBundle, build_bundle, principal_sqrt, sqrt_residual
from .symmetry import (
    LaplacianSplit,
    SpectralDecomposition,
    check_symmetrizable,
    decompose_laplacian,
    mode_interaction_matrix,
    spectral_decomposition,
    symmetrize,
    to_modes,
)

__version__ = "0.1.0"
