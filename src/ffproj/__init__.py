"""ffproj: coset projections, Fourier decay, and percolation in F_p^n.

The library is organized around a dense point-set substrate (core), canonical
RREF subspaces and Gaussian binomial counting (subspaces), coset projections
with exceptional-direction censuses (projections), generalized plane energies
(energy), the discrete Fourier transform with Salem-decay machinery
(fourier), seeded percolation experiments (random_sets), and a grid runner
that checks every exact identity (suite).  The ``ffproj`` CLI exposes all of
it as reproducible experiments.
"""

__version__ = "0.1.0"

from .core import (
    AmbientSpace,
    BudgetError,
    IdentityError,
    PointSet,
    decode,
    dot,
    encode,
    is_prime,
    load_point_set,
    save_point_set,
)
from .energy import (
    additive_energy,
    energy_over_all_planes,
    family_energy,
    key_lemma_check,
    product_set,
    sum_lines,
    verify_energy_identity,
    verify_energy_identity_fourier,
)
from .fourier import (
    DecayReport,
    SalemProfile,
    Spectrum,
    character_sum,
    dft,
    paraboloid,
    plancherel_check,
    pointwise_coefficient,
    projection_bound_report,
    salem_deficiency,
    save_spectrum_csv,
    sphere,
    subspace_plancherel,
)
from .projections import (
    CensusReport,
    census_at_scales,
    census_fractional_image,
    census_small_image,
    coset_counts,
    projection_sizes,
)
from .random_sets import (
    PercolationModel,
    PercolationReport,
    chebyshev_size_check,
    chernoff_bound,
    mu_lower_bound,
    percolation_sample,
    verify_large_regime,
    verify_small_regime,
)
from .subspaces import (
    Subspace,
    check_range_condition,
    count_subspaces_containing,
    count_subspaces_with_perp_containing,
    enumerate_grassmannian,
    gaussian_binomial,
    load_subspace,
    perp,
    save_subspace,
    verify_pascal_identities,
)
from .suite import run_identity_suite
