"""Lattice stabilizer codes for continuous quantum variables.

Exact symplectic lattice algebra, closest-point decoding, Monte Carlo of
the Gaussian displacement channel, and the closed-form achievable rates
and bounds for both the quantum and the classical Gaussian channel. The
names below are the ones the demos use; everything else lives in the
submodules.
"""

__version__ = "0.1.0"

from .channel_sim import NoiseModel, estimate_error_probability
from .classical_channel import (
    ClassicalParams,
    debuda_rate,
    minkowski_lattice_rate,
    optimize_classical_d,
    shannon_capacity,
)
from .concatenated import (
    gkp_qudit_error_prob,
    min_distance_comparison,
    optimize_qudit_dimension,
    shor9_code,
    simulate_concatenated,
)
from .decoder import closest_point, packing_radius, shortest_vector
from .rates import (
    best_integer_lambda,
    coherent_information,
    hw_upper_bound,
    minkowski_radius_sq,
    sphere_packing_rate,
    sphere_volume,
)
from .symplectic_lattice import (
    code_dimension,
    dual_lattice,
    is_symplectically_integral,
    lattice_from_rows,
    make_code,
    rescale,
    standard_form,
    symplectic_gram,
)
