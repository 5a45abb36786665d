"""Lattice stabilizer codes for continuous quantum variables.

Exact symplectic lattice algebra, closest-point decoding, Monte Carlo of
the Gaussian displacement channel, and the closed-form achievable rates
and bounds for both the quantum and the classical Gaussian channel. The
names below are the ones the demos use; everything else lives in the
submodules.

``import gkplat`` loads no submodule: each name below imports its
submodule the first time it is used (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SUBMODULE = {name: module for module, names in {
    "channel_sim": "estimate_error_probability",
    "classical_channel": "ClassicalParams debuda_rate minkowski_lattice_rate "
                         "optimize_classical_d shannon_capacity",
    "concatenated": "min_distance_comparison shor9_code simulate_concatenated",
    "decoder": "closest_point packing_radius shortest_vector",
    "dit_rates": "gkp_qudit_error_prob optimize_qudit_dimension",
    "rates": "NoiseModel best_integer_lambda coherent_information hw_upper_bound "
             "minkowski_radius_sq sphere_packing_rate sphere_volume",
    "symplectic_lattice": "code_dimension dual_lattice is_symplectically_integral "
                          "Lattice make_code rescale standard_form symplectic_gram",
}.items() for name in names.split()}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    # an unknown name is an AttributeError, so `from gkplat import decoder`
    # falls through to importing the submodule
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
