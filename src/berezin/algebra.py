"""Exact arithmetic in a finitely generated Grassmann algebra.

Elements are sparse complex-linear combinations of monomials in
anticommuting generators (g * g' = -g' * g, g * g = 0).  Generators are
identified by (family, slice, component) triples so that higher layers can
allocate fresh blocks on demand: one block per time slice, per variable
set, and so on.  The canonical generator order is lexicographic on those
triples; every sign in the package follows from it.

Monomials are stored as tuples of (block, mask) pairs, one machine-int bit
set per (family, slice) block, so products reduce to bit operations plus
popcount parity for the permutation sign.
"""

from __future__ import annotations

import cmath
from enum import Enum, IntEnum
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

__all__ = [
    "Family",
    "GeneratorId",
    "Parity",
    "GrassmannElement",
    "ZERO",
    "ONE",
    "eta",
    "increment",
    "aux",
    "gen",
    "scalar",
    "monomial",
    "grassmann_exp",
    "norm",
    "parity",
    "substitute",
    "PRUNE",
    "element_to_json",
    "element_from_json",
]

Scalar = Union[int, float, complex]


class Family(IntEnum):
    """Generator families; the order fixes the canonical generator order."""

    VARIABLE = 0
    INCREMENT = 1
    AUXILIARY = 2


class GeneratorId(NamedTuple):
    """A single anticommuting generator.

    ``slice`` is a nonnegative block index (a partition node for increment
    generators, a variable-set tag otherwise) and ``component`` is 1-based
    within the block.
    """

    family: Family
    slice: int
    component: int

    def __repr__(self) -> str:
        return _generator_symbol(self)


def eta(component: int, set_index: int = 0) -> GeneratorId:
    """Function-argument variable; ``set_index`` distinguishes variable sets."""
    return GeneratorId(Family.VARIABLE, set_index, component)


def increment(slice_index: int, component: int) -> GeneratorId:
    """Brownian-increment generator for one partition slice."""
    return GeneratorId(Family.INCREMENT, slice_index, component)


def aux(component: int, set_index: int = 0) -> GeneratorId:
    """Auxiliary generator (expansion points, scratch variable sets)."""
    return GeneratorId(Family.AUXILIARY, set_index, component)


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


# A block is a (family value, slice) pair; a multi-index is a sorted tuple
# of (block, component bit mask) pairs with nonzero masks.
Block = tuple[int, int]
MultiIndex = tuple[tuple[Block, int], ...]

EMPTY_INDEX: MultiIndex = ()

# Coefficients below this magnitude are dropped after every operation,
# which keeps long operator products sparse.
PRUNE = 1e-14


def _block_of(g: GeneratorId) -> tuple[Block, int]:
    if g.component < 1:
        raise ValueError(f"component must be >= 1, got {g.component}")
    if g.slice < 0:
        raise ValueError(f"slice must be >= 0, got {g.slice}")
    return (int(g.family), g.slice), 1 << (g.component - 1)


def multi_index(generators: Iterable[GeneratorId]) -> MultiIndex:
    """Canonical multi-index for a set of distinct generators."""
    by_block: dict[Block, int] = {}
    for g in generators:
        block, bit = _block_of(g)
        mask = by_block.get(block, 0)
        if mask & bit:
            raise ValueError(f"repeated generator {g}")
        by_block[block] = mask | bit
    return tuple(sorted(by_block.items()))


def index_generators(mi: MultiIndex) -> tuple[GeneratorId, ...]:
    """Generators of a multi-index in canonical (ascending) order."""
    out = []
    for (family, slice_index), mask in mi:
        while mask:
            low = mask & -mask
            out.append(GeneratorId(Family(family), slice_index, low.bit_length()))
            mask ^= low
    return tuple(out)


def index_degree(mi: MultiIndex) -> int:
    return sum(mask.bit_count() for _, mask in mi)


def _mask_inversions(above: int, below: int) -> int:
    """Number of pairs (j in above, i in below) with j > i, within one block."""
    inv = 0
    while below:
        low = below & -below
        inv += (above >> low.bit_length()).bit_count()
        below ^= low
    return inv


def index_product(a: MultiIndex, b: MultiIndex) -> tuple[MultiIndex, int] | None:
    """Merged multi-index and permutation sign of the product a*b.

    Returns ``None`` when a generator repeats (the product vanishes).  The
    sign counts the transpositions needed to sort the concatenation; it is
    the parity of pairs (j in a, i in b) with j above i in canonical order.
    """
    if not a:
        return b, 1
    if not b:
        return a, 1
    total_a = index_degree(a)
    out: list[tuple[Block, int]] = []
    inversions = 0
    seen_a = 0
    ia = 0
    na = len(a)
    for block_b, mask_b in b:
        while ia < na and a[ia][0] < block_b:
            out.append(a[ia])
            seen_a += a[ia][1].bit_count()
            ia += 1
        if ia < na and a[ia][0] == block_b:
            mask_a = a[ia][1]
            if mask_a & mask_b:
                return None
            inversions += _mask_inversions(mask_a, mask_b)
            inversions += mask_b.bit_count() * (total_a - seen_a - mask_a.bit_count())
            out.append((block_b, mask_a | mask_b))
            seen_a += mask_a.bit_count()
            ia += 1
        else:
            inversions += mask_b.bit_count() * (total_a - seen_a)
            out.append((block_b, mask_b))
    out.extend(a[ia:])
    return tuple(out), (-1 if inversions & 1 else 1)


def _remove_generator(
    mi: MultiIndex, block: Block, bit: int
) -> tuple[MultiIndex, int, int] | None:
    """Drop one generator; returns (index, #gens below, #gens above) or None."""
    below = 0
    total = index_degree(mi)
    for pos, (blk, mask) in enumerate(mi):
        if blk < block:
            below += mask.bit_count()
            continue
        if blk > block or not (mask & bit):
            return None
        below += (mask & (bit - 1)).bit_count()
        new_mask = mask ^ bit
        if new_mask:
            reduced = mi[:pos] + ((blk, new_mask),) + mi[pos + 1 :]
        else:
            reduced = mi[:pos] + mi[pos + 1 :]
        return reduced, below, total - below - 1
    return None


class GrassmannElement:
    """An immutable sparse element of the Grassmann algebra.

    All operations return new elements; instances can be shared freely.
    Scalars (int, float, complex) mix with elements in arithmetic.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[MultiIndex, Scalar] | None = None):
        tol = PRUNE  # a local: the per-term loop below is hot
        data: dict[MultiIndex, complex] = {}
        if terms:
            for mi, coeff in terms.items():
                c = complex(coeff)
                if abs(c) >= tol:
                    data[mi] = c
        self._terms = data

    # -- constructors -------------------------------------------------

    @classmethod
    def from_generator(cls, g: GeneratorId) -> "GrassmannElement":
        return cls({multi_index([g]): 1.0})

    @classmethod
    def from_scalar(cls, value: Scalar) -> "GrassmannElement":
        return cls({EMPTY_INDEX: complex(value)})

    @classmethod
    def from_monomial(cls, generators: Iterable[GeneratorId], coeff: Scalar = 1.0) -> "GrassmannElement":
        """Element for a product of distinct generators given in canonical order."""
        return cls({multi_index(generators): complex(coeff)})

    # -- inspection ---------------------------------------------------

    def items(self) -> Iterator[tuple[MultiIndex, complex]]:
        return iter(self._terms.items())

    def terms(self) -> Iterator[tuple[tuple[GeneratorId, ...], complex]]:
        for mi, coeff in self._terms.items():
            yield index_generators(mi), coeff

    def coefficient(self, generators: Iterable[GeneratorId] = ()) -> complex:
        return self._terms.get(multi_index(generators), 0j)

    @property
    def constant(self) -> complex:
        return self._terms.get(EMPTY_INDEX, 0j)

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return not self._terms or set(self._terms) == {EMPTY_INDEX}

    def scalar_value(self) -> complex:
        if not self.is_scalar():
            raise ValueError(f"element is not a scalar: {self}")
        return self.constant

    def generators(self) -> tuple[GeneratorId, ...]:
        seen: set[GeneratorId] = set()
        for mi in self._terms:
            seen.update(index_generators(mi))
        return tuple(sorted(seen))

    def blocks(self) -> set[Block]:
        out: set[Block] = set()
        for mi in self._terms:
            out.update(block for block, _ in mi)
        return out

    def touches(self, block: Block) -> bool:
        """Whether some term has a generator in ``block``; stops at the first."""
        return any(b == block for mi in self._terms for b, _ in mi)

    def norm(self) -> float:
        """Sum of coefficient magnitudes; submultiplicative under products."""
        return sum(abs(c) for c in self._terms.values())

    def has_parity(self, p: Parity) -> bool:
        """Whether the element is zero or of parity ``p``; zero counts as every parity."""
        return not self._terms or self.parity() is p

    def parity(self) -> Parity:
        degrees = {index_degree(mi) & 1 for mi in self._terms}
        if degrees <= {0}:
            return Parity.EVEN
        if degrees == {1}:
            return Parity.ODD
        return Parity.MIXED

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "GrassmannElement | Scalar") -> "GrassmannElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for mi, c in other._terms.items():
            data[mi] = data.get(mi, 0j) + c
        return GrassmannElement(data)

    __radd__ = __add__

    def __sub__(self, other: "GrassmannElement | Scalar") -> "GrassmannElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for mi, c in other._terms.items():
            data[mi] = data.get(mi, 0j) - c
        return GrassmannElement(data)

    def __rsub__(self, other: Scalar) -> "GrassmannElement":
        return _coerce(other).__sub__(self)

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement({mi: -c for mi, c in self._terms.items()})

    def __mul__(self, other: "GrassmannElement | Scalar") -> "GrassmannElement":
        if isinstance(other, (int, float, complex)):
            return GrassmannElement({mi: c * other for mi, c in self._terms.items()})
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        data: dict[MultiIndex, complex] = {}
        for mi_a, ca in self._terms.items():
            for mi_b, cb in other._terms.items():
                merged = index_product(mi_a, mi_b)
                if merged is None:
                    continue
                mi, sign = merged
                data[mi] = data.get(mi, 0j) + sign * ca * cb
        return GrassmannElement(data)

    __rmul__ = __mul__  # only scalars reach it, and scalar products commute

    def __truediv__(self, other: Scalar) -> "GrassmannElement":
        if isinstance(other, (int, float, complex)):
            return GrassmannElement({mi: c / other for mi, c in self._terms.items()})
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float, complex)):
            other = GrassmannElement.from_scalar(other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mi in sorted(self._terms, key=lambda m: (index_degree(m), m)):
            coeff = self._terms[mi]
            sign, body = _format_coeff(coeff)
            if mi:
                symbols = "".join(_generator_symbol(g) for g in index_generators(mi))
                body = f"{body}·{symbols}"
            if not parts:
                parts.append(body if sign > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if sign > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<GrassmannElement {self}>"


def _coerce(value: "GrassmannElement | Scalar") -> GrassmannElement:
    if isinstance(value, GrassmannElement):
        return value
    if isinstance(value, (int, float, complex)):
        return GrassmannElement.from_scalar(value)
    return NotImplemented


_FAMILY_SYMBOL = {Family.VARIABLE: "η", Family.INCREMENT: "δ", Family.AUXILIARY: "θ"}


def _generator_symbol(g: GeneratorId) -> str:
    symbol = _FAMILY_SYMBOL[Family(g.family)]
    if g.family == Family.VARIABLE and g.slice == 0:
        return f"{symbol}[{g.component}]"
    if g.family == Family.VARIABLE and g.slice == 1:
        return f"{symbol}'[{g.component}]"
    if g.family == Family.AUXILIARY and g.slice == 0:
        return f"{symbol}[{g.component}]"
    return f"{symbol}[{g.slice};{g.component}]"


def _format_coeff(c: complex) -> tuple[int, str]:
    """(sign, magnitude text) with the sign pulled out when unambiguous."""
    if c.imag == 0.0:
        re = c.real
        return (1 if re >= 0 else -1), repr(abs(re))
    if c.real == 0.0:
        im = c.imag
        return (1 if im >= 0 else -1), f"{abs(im)!r}i"
    return 1, f"({c.real!r}{'+' if c.imag >= 0 else '-'}{abs(c.imag)!r}i)"


ZERO = GrassmannElement()
ONE = GrassmannElement.from_scalar(1.0)


def gen(g: GeneratorId) -> GrassmannElement:
    return GrassmannElement.from_generator(g)


def scalar(value: Scalar) -> GrassmannElement:
    return GrassmannElement.from_scalar(value)


def monomial(generators: Iterable[GeneratorId], coeff: Scalar = 1.0) -> GrassmannElement:
    return GrassmannElement.from_monomial(generators, coeff)


def norm(a: GrassmannElement) -> float:
    return a.norm()


def parity(a: GrassmannElement) -> Parity:
    return a.parity()


def grassmann_exp(a: GrassmannElement) -> GrassmannElement:
    """Exponential of an even element.

    The nilpotent part has a terminating power series, so the result is
    exact up to floating-point arithmetic; any constant term contributes an
    ordinary scalar factor.  Odd or mixed arguments are rejected because
    their partial sums do not commute.
    """
    if a.parity() is not Parity.EVEN:
        raise ValueError("grassmann_exp requires an even element")
    constant = a.constant
    nilpotent = a - constant
    result = ONE
    power = ONE
    k = 1
    limit = len(a.generators()) + 2
    while True:
        power = power * nilpotent / k
        if power.is_zero():
            break
        result = result + power
        k += 1
        if k > limit:
            raise AssertionError("nilpotent power series failed to terminate")
    if constant != 0:
        result = cmath.exp(constant) * result
    return result


def substitute(
    a: GrassmannElement, mapping: Mapping[GeneratorId, GrassmannElement]
) -> GrassmannElement:
    """Replace generators by odd elements (an algebra homomorphism).

    Unmapped generators are left in place.  Images must be odd (or zero);
    odd images square to zero, which is what makes the extension to
    products well defined.
    """
    return _substitute_odd(a, _odd_images(mapping))


def _odd_images(
    mapping: Mapping[GeneratorId, GrassmannElement]
) -> dict[GeneratorId, GrassmannElement]:
    """The images of a substitution map, each checked to be odd (or zero)."""
    images: dict[GeneratorId, GrassmannElement] = {}
    for g, value in mapping.items():
        if not value.has_parity(Parity.ODD):
            raise ValueError(f"substitution image for {g} must be odd, got {value.parity().value}")
        images[g] = value
    return images


def _substitute_odd(
    a: GrassmannElement, images: Mapping[GeneratorId, GrassmannElement]
) -> GrassmannElement:
    """The homomorphism of ``substitute``, for images ``_odd_images`` has checked."""
    result = ZERO
    for mi, coeff in a.items():
        term = GrassmannElement.from_scalar(coeff)
        for g in index_generators(mi):
            factor = images.get(g)
            term = term * (factor if factor is not None else gen(g))
            if term.is_zero():
                break
        result = result + term
    return result


# -- serialization ----------------------------------------------------

_FAMILY_CODE = {Family.VARIABLE: "v", Family.INCREMENT: "i", Family.AUXILIARY: "a"}
_CODE_FAMILY = {v: k for k, v in _FAMILY_CODE.items()}


def _generator_code(g: GeneratorId) -> str:
    return f"{_FAMILY_CODE[Family(g.family)]}{g.slice}.{g.component}"


def _generator_from_code(code: str) -> GeneratorId:
    family = _CODE_FAMILY[code[0]]
    slice_text, component_text = code[1:].split(".")
    return GeneratorId(family, int(slice_text), int(component_text))


def element_to_json(a: GrassmannElement) -> dict[str, list[float]]:
    """Lossless mapping {multi-index key: [re, im]}, keys sorted for stability."""
    out: dict[str, list[float]] = {}
    for gens, coeff in a.terms():
        key = " ".join(_generator_code(g) for g in gens) if gens else "1"
        out[key] = [coeff.real, coeff.imag]
    return dict(sorted(out.items()))


def element_from_json(data: Mapping[str, Iterable[float]]) -> GrassmannElement:
    terms: dict[MultiIndex, complex] = {}
    for key, (re, im) in data.items():
        gens = () if key == "1" else tuple(_generator_from_code(c) for c in key.split())
        terms[multi_index(gens)] = complex(re, im)
    return GrassmannElement(terms)
