"""Set-comparison names that the benchmark tracer wraps.

Both families share one closed form (polymethod.gamma_closed), one grid
polynomial (polymethod.q_tilde) and one prefactor (polymethod.prefactor);
a (g, N, M) point or arity 3 selects set comparison, where

    P(g, N, M) = prefactor(n, T, (g, N, M)) * q(g, N, M)

exactly at every admissible point.  This module stays because
perfbench/tracer.py imports it and times its names under their own
spans: assemble_q3 is assemble_grid_poly at arity 3, and
sample_setcomp_input and expected_acceptance3_mc are aliases of
instances.sample_input and polymethod.expected_acceptance_mc.
"""

from __future__ import annotations

from .instances import sample_input
from .lattice import LatticePoly
from .multilinear import MultilinearPoly
from .polymethod import assemble_grid_poly, expected_acceptance_mc


def assemble_q3(p: MultilinearPoly, n: int, T: int) -> LatticePoly:
    """q(g, N, M) = sum_I beta_I q~_I for an extracted acceptance poly."""
    return assemble_grid_poly(p, n, T, 3)


sample_setcomp_input = sample_input
expected_acceptance3_mc = expected_acceptance_mc
