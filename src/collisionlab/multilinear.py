"""Multilinear polynomials over oracle-input indicator variables.

The indicator Delta(register, i, h) is 1 when position i of the named
input sequence holds value h, else 0.  Acceptance probabilities of query
algorithms are multilinear polynomials in these indicators; a monomial's
shape (its width and each register's sorted value multiplicities) is all
that the structured-input expectations read of it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .instances import KIND_REGISTERS
from .qsqrt2 import QSqrt2, ZERO, int_form
from .simulator import _int64_or_object

REGISTERS = KIND_REGISTERS["setcomp"]  # every register an indicator can name
_EXACT_FLOAT = 1 << 53  # every integer of smaller absolute value is a float exactly


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


class MonomialShape(NamedTuple):
    """A monomial's value pattern: the width (distinct values over both
    registers) and, per register (a field of its name), how many
    positions pin each value, sorted.  Relabelling keeps it."""

    width: int
    x: tuple[int, ...]
    y: tuple[int, ...]


class Monomial:
    """A product of indicators with distinct (register, position) pairs.

    Construction canonicalizes: factors are sorted, repeated identical
    factors collapse (Delta^2 = Delta), and a pair of factors that pin the
    same position to two different values makes the product identically
    zero, reported as None by the factory methods.
    """

    __slots__ = ("factors", "_shape")

    def __init__(self, factors: tuple[IndicatorVariable, ...]):
        self.factors = factors
        self._shape = None

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

    # -- statistics ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.factors)

    def shape(self) -> MonomialShape:
        """The monomial's shape, counted in one pass over the factors on
        first use and kept, since a monomial never changes."""
        if self._shape is None:
            counts: dict[str, dict[int, int]] = {reg: {} for reg in REGISTERS}
            for register, _, value in self.factors:
                counts[register][value] = counts[register].get(value, 0) + 1
            x, y = counts.values()
            width = len(x.keys() | y.keys())
            self._shape = MonomialShape(width, tuple(sorted(x.values())), tuple(sorted(y.values())))
        return self._shape

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: tuple[int, ...], y: tuple[int, ...] | None = None) -> int:
        for f in self.factors:
            seq = (x, y)[REGISTERS.index(f.register)]
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


_DENSE_BINS = 1 << 16  # most codes a slot set's lookup indexes directly; past it, searchsorted


def code_lookup(
    monomials: Iterable[Monomial], draws: np.ndarray, n: int
) -> Iterator[tuple[list[int], np.ndarray, np.ndarray, int]]:
    """Which draws (S x n, or S x 2n with y after x; values >= 0) each
    monomial hits, read per slot set: the columns that a monomial pins.

    Per slot set, in first-seen order, yields (members, term_bins,
    draw_bins, bins): the positions of its monomials in the input, the
    bin of each, and the bin of each draw, all in 0..bins - 1.  A
    monomial hits exactly the draws in its bin.  A bin is a mixed-radix
    code, base 1 + the largest draw or pinned value, of the values at
    the slot set's columns: the monomial's pinned values, or the draw's.
    While base^k codes are at most _DENSE_BINS, the code is the bin;
    past that, the bin is the code's place among the monomials' sorted
    codes, and a draw whose code no monomial has takes the last bin.
    """
    # (registers, positions) -> (members, their pinned values in one flat list)
    groups: dict[tuple, tuple[list[int], list[int]]] = {}
    for i, m in enumerate(monomials):
        if m.factors:
            registers, positions, vals = zip(*m.factors)
            slots = (registers, positions)
        else:
            slots, vals = (), ()
        group = groups.get(slots)
        if group is None:
            group = groups[slots] = ([], [])
        group[0].append(i)
        group[1].extend(vals)
    width = draws.shape[1]
    top = int(draws.max(initial=0))
    plan = []
    for slots, (members, values) in groups.items():
        key = [REGISTERS.index(reg) * n + pos - 1 for reg, pos in zip(*slots)]
        for j, col in enumerate(key):
            if slots[1][j] > n or col >= width:
                f = IndicatorVariable(slots[0][j], slots[1][j], values[j])
                raise ValueError(f"indicator {f} has no matching sequence entry")
        if values:
            top = max(top, max(values))
        plan.append((key, members, values))
    base = top + 1
    powers = {}
    for key, members, values in plan:
        k = len(key)
        size = base ** k
        code_type = _int64_or_object(size - 1)
        if k not in powers:
            powers[k] = np.array([base ** (k - 1 - j) for j in range(k)], dtype=code_type)
        term_code = np.array(values, dtype=code_type).reshape(len(members), k) @ powers[k]
        draw_code = draws[:, key[0]].astype(code_type) if key else np.zeros(len(draws), dtype=code_type)
        for col in key[1:]:  # in place: no widened copy of the table's columns
            draw_code *= base
            draw_code += draws[:, col]
        if size <= _DENSE_BINS:
            yield members, term_code, draw_code, size
            continue
        codes = np.unique(term_code)
        place = np.searchsorted(codes, draw_code)
        found = codes[np.minimum(place, len(codes) - 1)] == draw_code
        yield members, np.searchsorted(codes, term_code), np.where(found, place, len(codes)), len(codes) + 1


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
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Exact values at a batch of draws, one lookup per slot set.

        draws is an S x n integer array of x sequences, or S x 2n with y
        after x.  Returns (A, B, D), two arrays and an int: draw s has the
        value (A[s] + B[s] sqrt(2)) / D, where (D, [(A_I, B_I), ...]) is
        the int_form of the coefficients.  Per slot set of code_lookup, the
        terms' (A_I, B_I) are written to their bins and each draw adds its
        bin's.  A and B are int64 while D and the sum of every |A_I| +
        |B_I| are below 2^53, so each value and D convert to floats
        exactly; otherwise they hold Python ints.  Either way every value
        is exact.
        """
        S, width = draws.shape
        if S == 0:
            raise ValueError("an empty batch has no values; need at least one draw")
        if width not in (n, 2 * n):
            raise ValueError(f"draws must have n = {n} or 2n columns, got {width}")
        D, coeffs = int_form(self.terms.values())
        flat = list(itertools.chain.from_iterable(coeffs))
        num = np.int64 if max(D, sum(map(abs, flat))) < _EXACT_FLOAT else object
        term = np.array(flat, dtype=num).reshape(-1, 2)  # one (A_I, B_I) row per term
        acc = np.zeros((S, 2), dtype=num)
        for members, term_bins, draw_bins, bins in code_lookup(self.terms, draws, n):
            table = np.zeros((bins, 2), dtype=num)
            table[term_bins] = term.take(members, axis=0)  # a slot set's monomials have distinct bins
            acc += table.take(draw_bins, axis=0)
        return acc[:, 0], acc[:, 1], D

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
