"""wml: matrix-weighted martingale square functions on finite filtered
probability spaces — reducing matrices, A_p characteristics, principal
sets, sparse operators, and empirical sharp-exponent probes."""

from .filtration import (FilteredSpace, Martingale, build_dyadic,
                         build_from_tree, cond_expect, increment_adjoint,
                         level_means, lp_norm, martingale_of)
from .linalg import (EllipsoidError, ValidationError, jacobi_eigh,
                     spectral_norm)
from .weights import (MatrixWeight, ReducingPair, ap_characteristic,
                      ap_equivalents, as_weight, build_reducing_pair,
                      conjugate, exchanged_pair, reducer_norms,
                      verify_reducing_bounds)
from .operators import (lp_weighted_norm, sparse_operator, square_fn,
                        weighted_cond_expect, weighted_square_fn)
from .principal import (FluctuationTable, PrincipalFamily, PrincipalSet,
                        build_principal_family, check_properties,
                        default_threshold, domination_constant,
                        fluctuation_table, fluctuation_tables,
                        iteration_check, iteration_constant,
                        sparse_domination_check, vanish_checks)
from .analysis import Analysis
from .experiments import (SweepConfig, SweepPointError, SweepRecord,
                          exponent_fit, matrix_target_exponent, opnorm_ascent,
                          opnorm_power_iteration, power_weight,
                          rotating_weight, run_sweep, scalar_target_exponent,
                          sweep_fit)

__version__ = "0.1.0"
