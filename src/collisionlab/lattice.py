"""Exact polynomials on the lattice-parameter grid.

A LatticePoly is a polynomial with Fraction coefficients in the grid
variables (g, N) or (g, N, M), stored as a map from exponent tuples to
coefficients.  It supports the symbolic assembly of the expectation
polynomials, exact evaluation at integer grid points, partial
derivatives, and vectorized float evaluation for maximization.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import numpy as np

from .qsqrt2 import format_fraction

VARIABLE_NAMES = {2: ("g", "N"), 3: ("g", "N", "M")}


class LatticePoly:
    """Polynomial with exact rational coefficients in 2 or 3 variables."""

    __slots__ = ("arity", "coeffs")

    def __init__(self, arity: int, coeffs: Mapping[tuple[int, ...], Fraction] | None = None):
        if arity not in (2, 3):
            raise ValueError("arity must be 2 or 3")
        self.arity = arity
        self.coeffs: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (coeffs or {}).items():
            if len(exps) != arity:
                raise ValueError(f"exponent tuple {exps} does not match arity {arity}")
            c = Fraction(c)
            if c != 0:
                self.coeffs[tuple(int(e) for e in exps)] = c

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def constant(arity: int, c) -> "LatticePoly":
        return LatticePoly(arity, {(0,) * arity: Fraction(c)})

    @staticmethod
    def variable(arity: int, index: int) -> "LatticePoly":
        exps = [0] * arity
        exps[index] = 1
        return LatticePoly(arity, {tuple(exps): Fraction(1)})

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "LatticePoly") -> "LatticePoly":
        self._check_arity(other)
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return LatticePoly(self.arity, out)

    def __sub__(self, other: "LatticePoly") -> "LatticePoly":
        return self + other.scale(-1)

    def scale(self, c) -> "LatticePoly":
        c = Fraction(c)
        return LatticePoly(self.arity, {e: v * c for e, v in self.coeffs.items()})

    def __mul__(self, other: "LatticePoly") -> "LatticePoly":
        self._check_arity(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return LatticePoly(self.arity, out)

    def _check_arity(self, other: "LatticePoly"):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")

    # -- queries --------------------------------------------------------------------

    @property
    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        return max((sum(e) for e in self.coeffs), default=-1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, point) -> Fraction:
        """Exact value at a point of Fractions or ints."""
        pt = [Fraction(v) for v in point]
        if len(pt) != self.arity:
            raise ValueError("point does not match arity")
        total = Fraction(0)
        for exps, c in self.coeffs.items():
            term = c
            for v, e in zip(pt, exps):
                term *= v**e
            total += term
        return total

    def evaluate_float(self, *grids: np.ndarray) -> np.ndarray:
        """Float value on broadcastable numpy arrays, one per variable:
        open grids (``np.meshgrid(..., sparse=True)``), dense grids, or
        1-D coordinate arrays of scattered points.

        Each term c * g^a * N^b [* M^d] is computed as
        ``((c * g**a) * N**b) * M**d``, starting from ``c`` as a float64
        scalar and skipping the factors with exponent 0, and the terms are
        added to a float64 zero array in coefficient order.  ``**`` and
        ``*`` act element by element, so every output element sees the
        same operations in the same order whatever the arrays' shapes:
        the value at a point has the same bits on an open grid, on a dense
        grid, and among any other points.  The derivative search relies on
        that when it evaluates only a few points of its grid.
        """
        if len(grids) != self.arity:
            raise ValueError("grid count does not match arity")
        total = np.zeros(np.broadcast(*grids).shape)
        for exps, c in self.coeffs.items():
            term = np.float64(c)
            for grid, e in zip(grids, exps):
                if e:
                    term = term * grid**e
            total += term
        return total

    def derivative(self, index: int) -> "LatticePoly":
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.coeffs.items():
            e = exps[index]
            if e == 0:
                continue
            key = tuple(v - 1 if i == index else v for i, v in enumerate(exps))
            out[key] = out.get(key, Fraction(0)) + c * e
        return LatticePoly(self.arity, out)

    # -- serialization -----------------------------------------------------------------

    def sorted_items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.coeffs.items())

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "variables": list(VARIABLE_NAMES[self.arity]),
            "total_degree": self.total_degree,
            "coeffs": {
                ",".join(str(e) for e in exps): format_fraction(c)
                for exps, c in self.sorted_items()
            },
        }

    @staticmethod
    def from_json(doc: dict) -> "LatticePoly":
        coeffs = {
            tuple(int(s) for s in key.split(",")): Fraction(val)
            for key, val in doc["coeffs"].items()
        }
        return LatticePoly(int(doc["arity"]), coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, LatticePoly)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        names = VARIABLE_NAMES[self.arity]
        parts = []
        for exps, c in self.sorted_items()[:6]:
            mono = "*".join(f"{n}^{e}" for n, e in zip(names, exps) if e)
            parts.append(str(c) if not mono else f"{c}*{mono}")
        more = "" if len(self.coeffs) <= 6 else f" ... ({len(self.coeffs)} terms)"
        return "LatticePoly(" + " + ".join(parts or ["0"]) + more + ")"
