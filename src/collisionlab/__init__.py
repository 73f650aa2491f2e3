"""collisionlab: a desk-scale laboratory for quantum query algorithms.

Simulates query algorithms against standard (XOR) and erasing oracles
with exact Q(sqrt(2)) amplitudes, extracts acceptance probabilities as
low-degree multilinear polynomials, verifies the closed-form monomial
expectations of the structured collision and set-comparison input
families against brute-force enumeration, and evaluates the Markov-type
degree-bound inequality chain at concrete parameters.
"""

from .qsqrt2 import QSqrt2
from .instances import (
    ConfigError,
    Instance,
    QuasilatticePoint,
    SuperQuasilatticePoint,
    kappa,
    quasilattice_points,
    sample_input,
    set_union_size,
    super_quasilattice_points,
    validate_instance,
)
from .multilinear import IndicatorVariable, Monomial, MonomialShape, MultilinearPoly
from .lattice import LatticePoly
from .simulator import (
    BasisState,
    Layer,
    QueryAlgorithm,
    StateSpace,
    StateVector,
    acceptance_probability,
    apply_erasing_query,
    apply_standard_query,
    apply_unitary,
    sample_measurement,
)
from .polymethod import (
    assemble_q,
    expected_acceptance,
    extract_polynomial,
    gamma_bruteforce,
    gamma_closed,
    prefactor,
    q_tilde,
)
from .setcomp_poly import assemble_q3
from .degreebound import (
    degree_lower_bound,
    markov_bound,
    verify_inequality_chain,
    weighted_max_derivative,
)
from .algorithms import (
    AlgorithmResult,
    bht_collision,
    classical_birthday,
    erasing_setcomp_decide,
    grover_search,
)

__version__ = "0.1.0"
