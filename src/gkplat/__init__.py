"""Lattice stabilizer codes for continuous quantum variables.

Exact symplectic lattice algebra, closest-point decoding, Monte Carlo of
the Gaussian displacement channel, and the closed-form achievable rates
and bounds for both the quantum and the classical Gaussian channel.
"""

__version__ = "0.1.0"

from .catalog import CatalogEntry, get
from .channel_sim import (
    RNG_ALGORITHM,
    ErrorEstimate,
    NoiseModel,
    estimate_error_probability,
    wilson_interval,
)
from .classical_channel import (
    ClassicalParams,
    classical_concat_rate,
    classical_dit_error_prob,
    debuda_rate,
    minkowski_lattice_rate,
    optimize_classical_d,
    shannon_capacity,
)
from .concatenated import (
    ConcatDesign,
    CssCode,
    QuditPauliError,
    concat_rate_qubits,
    css_decode,
    css_rate_qudits,
    entropy_base_d,
    gkp_qudit_error_prob,
    min_distance_comparison,
    optimize_qudit_dimension,
    sample_qudit_errors,
    shor9_code,
    simulate_concatenated,
    trivial_code,
)
from .decoder import (
    DecodeResult,
    closest_point,
    in_voronoi_cell,
    packing_radius,
    shortest_vector,
)
from .rates import (
    best_integer_lambda,
    coherent_information,
    error_probability_bound,
    hw_upper_bound,
    minkowski_radius_sq,
    sphere_packing_rate,
    sphere_volume,
)
from .symplectic_lattice import (
    Lattice,
    LatticeCode,
    StandardForm,
    SymplecticGram,
    code_dimension,
    coset_member,
    dual_lattice,
    gram_matrix,
    is_symplectically_integral,
    lattice_from_dict,
    lattice_from_rows,
    lattice_to_dict,
    load_lattice,
    logical_class,
    make_code,
    omega,
    rescale,
    save_lattice,
    standard_form,
    symplectic_gram,
    symplectic_pairing,
)
