"""Multilinear polynomials over oracle-input indicator variables.

The indicator Delta(register, i, h) is 1 when position i of the named
input sequence holds value h, else 0.  Acceptance probabilities of query
algorithms are multilinear polynomials in these indicators; monomials
carry the combinatorial statistics (degree, range, multiplicities) that
the structured-input expectations are computed from.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .qsqrt2 import QSqrt2, ZERO, int_form

REGISTERS = ("x", "y")


class IndicatorVariable(NamedTuple):
    """Delta(register, position, value): [sequence[position] == value]."""

    register: str  # "x" or "y"
    position: int  # 1-based position in the sequence
    value: int

    def check(self):
        if self.register not in REGISTERS:
            raise ValueError(f"unknown register {self.register!r}")
        if self.position < 1:
            raise ValueError("position must be >= 1")
        if self.value < 1:
            raise ValueError("value must be >= 1")


class Monomial:
    """A product of indicators with distinct (register, position) pairs.

    Construction canonicalizes: factors are sorted, repeated identical
    factors collapse (Delta^2 = Delta), and a pair of factors that pin the
    same position to two different values makes the product identically
    zero, reported as None by the factory methods.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[IndicatorVariable, ...]):
        self.factors = factors

    @staticmethod
    def from_factors(factors: Iterable[IndicatorVariable]) -> Optional["Monomial"]:
        """Canonical monomial, or None if the product is identically zero."""
        seen: dict[tuple[str, int], int] = {}
        for f in factors:
            f.check()
            key = (f.register, f.position)
            if key in seen and seen[key] != f.value:
                return None
            seen[key] = f.value
        canon = tuple(
            sorted(IndicatorVariable(r, p, v) for (r, p), v in seen.items())
        )
        return Monomial(canon)

    @staticmethod
    def one() -> "Monomial":
        return Monomial(())

    def times(self, other: "Monomial") -> Optional["Monomial"]:
        return Monomial.from_factors(self.factors + other.factors)

    def with_factor(self, f: IndicatorVariable) -> Optional["Monomial"]:
        return Monomial.from_factors(self.factors + (f,))

    # -- statistics ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.factors)

    def register_factors(self, register: str) -> tuple[IndicatorVariable, ...]:
        return tuple(f for f in self.factors if f.register == register)

    def value_set(self, register: str | None = None) -> frozenset[int]:
        """Range of the monomial: all values pinned by its factors."""
        fs = self.factors if register is None else self.register_factors(register)
        return frozenset(f.value for f in fs)

    def width(self, register: str | None = None) -> int:
        return len(self.value_set(register))

    def multiplicities(self, register: str | None = None) -> dict[int, int]:
        """value -> how many distinct positions pin that value."""
        fs = self.factors if register is None else self.register_factors(register)
        out: dict[int, int] = {}
        for f in fs:
            out[f.value] = out.get(f.value, 0) + 1
        return out

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: tuple[int, ...], y: tuple[int, ...] | None = None) -> int:
        for f in self.factors:
            seq = x if f.register == "x" else y
            if seq is None or f.position > len(seq):
                raise ValueError(f"indicator {f} has no matching sequence entry")
            if seq[f.position - 1] != f.value:
                return 0
        return 1

    # -- plumbing --------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __lt__(self, other: "Monomial"):
        return (self.degree, self.factors) < (other.degree, other.factors)

    def __repr__(self):
        if not self.factors:
            return "Monomial(1)"
        body = "*".join(f"D({f.register}{f.position}={f.value})" for f in self.factors)
        return f"Monomial({body})"


def monomials_over(slots, values, max_degree: int) -> Iterator[Monomial]:
    """Every monomial of degree <= max_degree that pins distinct
    (register, position) slots to values: the constant, then by degree,
    each combination of slots in order times each tuple of values.  The
    slots must be distinct, so no product conflicts."""
    yield Monomial.one()
    for r in range(1, max_degree + 1):
        for chosen in itertools.combinations(slots, r):
            for pinned in itertools.product(values, repeat=r):
                yield Monomial.from_factors(
                    IndicatorVariable(reg, pos, v) for (reg, pos), v in zip(chosen, pinned)
                )


def hit_masks(
    monomials: Iterable[Monomial], draws: np.ndarray, n: int
) -> Iterator[np.ndarray | None]:
    """Per monomial, the boolean mask of the draws (S x n, or S x 2n with
    y after x) that it hits; None for the constant monomial, which hits
    all.  Each (column, value) mask is computed once and shared: read
    the masks, do not write to them."""
    width = draws.shape[1]
    hits: dict[tuple[int, int], np.ndarray] = {}
    for m in monomials:
        mask = None
        for f in m.factors:
            col = f.position - 1 + (n if f.register == "y" else 0)
            if f.position > n or col >= width:
                raise ValueError(f"indicator {f} has no matching sequence entry")
            hit = hits.get((col, f.value))
            if hit is None:
                hit = hits[col, f.value] = draws[:, col] == f.value
            mask = hit if mask is None else mask & hit
        yield mask


class MultilinearPoly:
    """Multilinear polynomial: map canonical Monomial -> QSqrt2 coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, QSqrt2] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @staticmethod
    def constant(c) -> "MultilinearPoly":
        c = QSqrt2.coerce(c)
        if c.is_zero():
            return MultilinearPoly()
        return MultilinearPoly({Monomial.one(): c})

    @staticmethod
    def indicator(var: IndicatorVariable) -> "MultilinearPoly":
        m = Monomial.from_factors([var])
        if m is None:
            raise AssertionError("a single indicator cannot conflict with itself")
        return MultilinearPoly({m: QSqrt2(1)})

    @property
    def degree(self) -> int:
        """Max monomial degree; -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic -------------------------------------------------------------

    def add_scaled_inplace(self, other: "MultilinearPoly", scale: QSqrt2):
        """self += scale * other, in place."""
        if scale.is_zero():
            return
        terms = self.terms
        for m, c in other.terms.items():
            acc = terms.get(m)
            val = c * scale if acc is None else acc + c * scale
            if val.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = val

    def __add__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        out = MultilinearPoly(dict(self.terms))
        out.add_scaled_inplace(other, QSqrt2(1))
        return out

    def scale(self, c) -> "MultilinearPoly":
        c = QSqrt2.coerce(c)
        if c.is_zero():
            return MultilinearPoly()
        return MultilinearPoly({m: v * c for m, v in self.terms.items()})

    def __mul__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        out: dict[Monomial, QSqrt2] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = m1.times(m2)
                if prod is None:
                    continue
                c = c1 * c2
                acc = out.get(prod)
                val = c if acc is None else acc + c
                if val.is_zero():
                    out.pop(prod, None)
                else:
                    out[prod] = val
        return MultilinearPoly(out)

    def square(self) -> "MultilinearPoly":
        return self * self

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, x: tuple[int, ...], y: tuple[int, ...] | None = None) -> QSqrt2:
        total = ZERO
        for m, c in self.terms.items():
            if m.evaluate(x, y):
                total = total + c
        return total

    def evaluate_batch(
        self, draws: np.ndarray, n: int
    ) -> tuple[list[int], list[int], int]:
        """Exact values at a batch of draws, one hit mask per term.

        draws is an S x n integer array of x sequences, or S x 2n with y
        after x.  Returns (A, B, D): draw s has the value
        (A[s] + B[s] sqrt(2)) / D, where (D, [(A_I, B_I), ...]) is the
        int_form of the coefficients.  Each term's (A_I, B_I) is added, as
        Python ints, to the draws of its hit_masks mask, so every value is
        exact.
        """
        S, width = draws.shape
        if S == 0:
            raise ValueError("an empty batch has no values; need at least one draw")
        if width not in (n, 2 * n):
            raise ValueError(f"draws must have n = {n} or 2n columns, got {width}")
        D, coeffs = int_form(self.terms.values())
        acc_a = np.zeros(S, dtype=object)
        acc_b = np.zeros(S, dtype=object)
        for (a, b), mask in zip(coeffs, hit_masks(self.terms, draws, n)):
            if mask is None:  # the constant term hits every draw
                mask = slice(None)
            if a:
                acc_a[mask] += a
            if b:
                acc_b[mask] += b
        return acc_a.tolist(), acc_b.tolist(), D

    # -- serialization -------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, QSqrt2]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0])

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [
                {
                    "factors": [[f.register, f.position, f.value] for f in m.factors],
                    "coeff": c.to_strings(),
                }
                for m, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "MultilinearPoly":
        terms: dict[Monomial, QSqrt2] = {}
        for t in doc["terms"]:
            m = Monomial.from_factors(
                IndicatorVariable(r, int(p), int(v)) for r, p, v in t["factors"]
            )
            if m is None:
                raise ValueError("conflicting factors in serialized monomial")
            terms[m] = QSqrt2.from_strings(t["coeff"])
        return MultilinearPoly(terms)

    def __eq__(self, other):
        return isinstance(other, MultilinearPoly) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "MultilinearPoly(0)"
        parts = [f"{c!r}*{m!r}" for m, c in self.sorted_terms()[:4]]
        more = "" if len(self.terms) <= 4 else f" ... ({len(self.terms)} terms)"
        return "MultilinearPoly(" + " + ".join(parts) + more + ")"
