"""Desk-scale lattice Fock-space laboratory for mean-field boson dynamics."""

from .basis import (
    FockVector,
    OccupationBasis,
    annihilate,
    basis_dimension,
    build_basis,
    number_moment,
    sector_dimension,
)
from .errors import (
    AliasingError,
    BlowUpError,
    CapacityError,
    ConfigError,
    ConvergenceError,
    FockLabError,
    NormalizationError,
    TruncationError,
)
from .hartree import (
    EnergyReport,
    HartreeFlow,
    energy,
    evolve_hartree,
    hartree_rhs,
    phase_rotate,
)
from .marginals import (
    DensityMatrix,
    hs_distance,
    marginal_from_fock,
    marginal_from_sector,
    rank_one,
    trace_distance,
)
from .model import (
    FockHamiltonian,
    LatticeModel,
    Potential,
    SectorHamiltonian,
    build_fock_hamiltonian,
    build_sector_hamiltonian,
    embed_product_state,
    kinetic_matrix,
)
from .config import ExperimentConfig, load_config
from .decomposition import (
    expansion_coefficient,
    parseval_identity_check,
    product_norm_constant,
    reconstruct_product,
    remainder_probe,
    scaled_coefficient,
)
from .fluctuations import (
    conjugation_identity_residual,
    dynamics_gap,
    evolve_fluctuation,
    number_growth_probe,
)
from .propagate import PropagationBudget, StaticPropagator, evolve_timedep
from .weyl import coherent_state, minimal_cutoff, poisson_tail, weyl_apply

__version__ = "0.1.0"
