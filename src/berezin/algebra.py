"""Exact arithmetic in a finitely generated Grassmann algebra.

Elements are sparse complex-linear combinations of monomials in
anticommuting generators (g * g' = -g' * g, g * g = 0).  Generators are
identified by (family, slice, component) triples so that higher layers can
allocate fresh blocks on demand: one block per time slice, per variable
set, and so on.  The canonical generator order is lexicographic on those
triples: variables, then auxiliaries, then increments.  Every sign in the
package follows from it.

Each monomial is stored as one Python int with one bit per generator, so
a product of two monomials is a collision test (``a & b``), a merge
(``a | b``) and a popcount inversion count for the permutation sign.  Each
block takes one byte: bits 0..31 hold the ``VARIABLE_SETS`` = 4 variable
sets, bits 32..159 the ``AUXILIARY_SETS`` = 16 auxiliary sets, and
increment slice s takes bits 160 + 8s onwards.  A block holds at most
``COMPONENT_CAP`` = 8 components; a generator outside these caps is
rejected with a ValueError.  Bit order is canonical order for every key.
"""

from __future__ import annotations

import cmath
import re
from enum import Enum, IntEnum
from functools import reduce
from numbers import Real
from operator import or_
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
    "element_to_json",
    "element_from_json",
]

Scalar = Union[int, float, complex]


class Family(IntEnum):
    """Generator families; the order fixes the canonical generator order and
    the bit layout: variables, then auxiliaries, then increments."""

    VARIABLE = 0
    AUXILIARY = 1
    INCREMENT = 2


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


# A block is a (family, slice) pair; a multi-index is the int whose bits are
# the generators of one monomial (see the module docstring for the layout).
Block = tuple[int, int]
MultiIndex = int

EMPTY_INDEX: MultiIndex = 0

COMPONENT_CAP = 8  # components per block: one byte of the multi-index
VARIABLE_SETS = 4  # variable sets, which fill the low bytes
AUXILIARY_SETS = 16  # auxiliary sets, in the bytes after the variable sets
_FIXED_SETS = VARIABLE_SETS + AUXILIARY_SETS  # the bytes below increment slice 0
_INCREMENT_SHIFT = COMPONENT_CAP * _FIXED_SETS  # the first bit of increment slice 0


class NonFiniteCoefficient(ValueError):
    """A NaN coefficient: an input or an intermediate overflowed, and
    dropping the term would leave a plausible wrong result.  An infinite
    coefficient is kept and stays visible."""


def _kept(mi: MultiIndex, c: complex) -> bool:
    """The keep rule, the one definition of it: whether the term ``c`` on
    ``mi`` is kept.  A term is kept exactly when ``abs(c) > 0``, so only an
    exact zero is dropped.  A coefficient whose magnitude is NaN fails that
    comparison and is refused with ``NonFiniteCoefficient`` rather than
    dropped; an infinite magnitude (``inf+nanj`` included) is kept.

    The loops of this module test ``abs(c) > 0.0 or _kept(mi, c)``: the
    comparison keeps a term at C speed, and only a term it would drop
    reaches this call, which drops an exact zero and refuses a NaN."""
    if abs(c) > 0.0:
        return True
    if c != c:
        symbols = "".join(_generator_symbol(g) for g in index_generators(mi)) or "1"
        raise NonFiniteCoefficient(f"non-finite coefficient {c} of the monomial {symbols}")
    return False


def _block_shift(family: int, slice_index: int) -> int:
    """Position of the first bit of a block."""
    if slice_index < 0:
        raise ValueError(f"slice must be >= 0, got {slice_index}")
    if family == Family.INCREMENT:
        return _INCREMENT_SHIFT + COMPONENT_CAP * slice_index
    if family == Family.VARIABLE:
        name, first, sets = "variable", 0, VARIABLE_SETS
    elif family == Family.AUXILIARY:
        name, first, sets = "auxiliary", VARIABLE_SETS, AUXILIARY_SETS
    else:
        raise ValueError(f"unknown generator family {family}")
    if slice_index >= sets:
        raise ValueError(f"{name} set {slice_index} is outside 0..{sets - 1}: sets are capped at {sets}")
    return COMPONENT_CAP * (first + slice_index)


def _bit_of(g: GeneratorId) -> int:
    """The one-bit multi-index of a generator."""
    if not 1 <= g.component <= COMPONENT_CAP:
        raise ValueError(f"component {g.component} is outside 1..{COMPONENT_CAP}: blocks are capped at {COMPONENT_CAP}")
    return 1 << (_block_shift(g.family, g.slice) + g.component - 1)


def multi_index(generators: Iterable[GeneratorId]) -> MultiIndex:
    """Canonical multi-index for a set of distinct generators."""
    mi = 0
    for g in generators:
        bit = _bit_of(g)
        if mi & bit:
            raise ValueError(f"repeated generator {g}")
        mi |= bit
    return mi


def _block_masks(mi: MultiIndex) -> tuple[tuple[Block, int], ...]:
    """The nonzero ((family, slice), component mask) blocks of a multi-index,
    in canonical block order, which is byte order: variable sets, auxiliary
    sets, increment slices."""
    raw = mi.to_bytes((mi.bit_length() + 7) // 8, "little")
    out = [((Family.VARIABLE, s), mask) for s, mask in enumerate(raw[:VARIABLE_SETS]) if mask]
    out += [((Family.AUXILIARY, s), mask) for s, mask in enumerate(raw[VARIABLE_SETS:_FIXED_SETS]) if mask]
    out += [((Family.INCREMENT, s), mask) for s, mask in enumerate(raw[_FIXED_SETS:]) if mask]
    return tuple(out)


def _increment_blocks(mi: MultiIndex) -> list[tuple[int, int]]:
    """(slice, component mask) of each increment slice a multi-index
    touches, in slice order, as ``_block_masks`` gives them: the nonzero
    bytes of its increment bits."""
    increments = mi >> _INCREMENT_SHIFT
    raw = increments.to_bytes((increments.bit_length() + 7) // 8, "little")
    return [(s, mask) for s, mask in enumerate(raw) if mask]


def index_generators(mi: MultiIndex) -> tuple[GeneratorId, ...]:
    """Generators of a multi-index in canonical (ascending) order."""
    out = []
    for (family, slice_index), mask in _block_masks(mi):
        while mask:
            low = mask & -mask
            out.append(GeneratorId(family, slice_index, low.bit_length()))
            mask ^= low
    return tuple(out)


def _above(mi: MultiIndex) -> int:
    """Bit i is set when an odd number of the bits of ``mi`` lie at or above i.

    For b disjoint from a, ``(_above(a) & b).bit_count()`` is then, mod 2,
    the number of pairs (j in a, i in b) with j above i: the inversions of
    the product a*b in bit order.
    """
    acc = mi
    width = mi.bit_length()
    shift = 1
    while shift < width:
        acc ^= acc >> shift
        shift <<= 1
    return acc


# ``_above`` of every key of variable set 0 (the keys below 256), where
# every state-variable key lies: ``_product`` reads it instead of the loop.
_SMALL_ABOVE = tuple(_above(k) for k in range(256))


def _product(left: dict[MultiIndex, complex], right: dict[MultiIndex, complex]) -> dict[MultiIndex, complex]:
    """The terms of the product of two elements' term maps.

    A pair of disjoint keys merges to ``ka | kb``; its permutation sign is
    the parity of the inversions, one popcount of the left term's
    ``_above`` mask.  The factors are ``sign * ca`` for every pair, so every
    sum rounds the same way in every product.
    """
    data: dict[MultiIndex, complex] = {}
    get = data.get
    for ka, ca in left.items():
        above = _SMALL_ABOVE[ka] if ka < 256 else _above(ka)
        plus, minus = 1 * ca, -1 * ca
        for kb, cb in right.items():
            if not ka & kb:
                mi = ka | kb
                data[mi] = get(mi, 0j) + (minus if (above & kb).bit_count() & 1 else plus) * cb
    return data


def _paired_product(left: dict[MultiIndex, complex], right: dict[MultiIndex, complex]) -> dict[MultiIndex, complex]:
    """The terms of ``_product(left, right)`` whose increment bits are unions
    of whole component pairs (1,2), (3,4), ...: the only terms a Wiener
    expectation keeps (Wick's pairing rule, slice by slice).

    A key's single bits are its increment bits whose pair partner it lacks.
    Two disjoint keys merge to a whole-paired key exactly when the right
    key's single bits are the left key's with the two bits of every pair
    swapped.  So the right terms are bucketed by their single bits, in
    order, and each left term meets only the bucket of its swapped single
    bits, with ``_product``'s collision test, sign and sums.  Every kept key
    gets the same addends in the same order, so its value and its place
    among the kept keys are ``_product``'s bit for bit.  Variable and
    auxiliary bits lie below the increments and ride along.
    """
    shift = _INCREMENT_SHIFT
    width = ((reduce(or_, left, 0) | reduce(or_, right, 0)) >> shift).bit_length()
    low = ((1 << (width + 1 & ~1)) - 1) // 3  # the low bit of every pair: 0b0101...01

    buckets: dict[int, list[tuple[MultiIndex, complex]]] = {}
    for kb, cb in right.items():
        i = kb >> shift
        d = (i ^ i >> 1) & low
        single = i & (d | d << 1)
        bucket = buckets.get(single)
        if bucket is None:
            bucket = buckets[single] = []
        bucket.append((kb, cb))

    data: dict[MultiIndex, complex] = {}
    get = data.get
    for ka, ca in left.items():
        i = ka >> shift
        d = (i ^ i >> 1) & low
        single = i & (d | d << 1)
        bucket = buckets.get((single & low) << 1 | (single >> 1) & low)
        if bucket is None:
            continue
        above = _above(ka)
        plus, minus = 1 * ca, -1 * ca
        for kb, cb in bucket:
            if not ka & kb:
                mi = ka | kb
                data[mi] = get(mi, 0j) + (minus if (above & kb).bit_count() & 1 else plus) * cb
    return data


def _generator_product(b: MultiIndex, k: complex, terms: Mapping[MultiIndex, complex]) -> dict[MultiIndex, complex]:
    """The terms of ``_product({b: k}, terms)`` for a one-bit key ``b``,
    in closed form, less the zero terms that ``*`` drops.

    A term c X with X & b = 0 goes to X | b with the sign
    (-1)^popcount(X & (b - 1)) of moving b past the generators of X below
    it, which is ``_product``'s sign since ``_above(b)`` is the bits at or
    below b; each key occurs once, so its value is ``_product``'s
    0j + (+-1 k) c.
    """
    below = b - 1
    plus, minus = 1 * k, -1 * k
    data: dict[MultiIndex, complex] = {}
    for x, cx in terms.items():
        if not x & b:
            value = 0j + (minus if (x & below).bit_count() & 1 else plus) * cx
            if abs(value) > 0.0 or _kept(x | b, value):
                data[x | b] = value
    return data


def _add_into(data: dict[MultiIndex, complex], terms: Mapping[MultiIndex, complex], factor: Scalar | None = None) -> None:
    """Add the terms of an element, times ``factor`` when given, into
    ``data`` in place: the sum rule of every element accumulation.

    ``data`` must hold no zero coefficient.  Each addend term is first
    scaled as ``factor * element`` would scale it, and dropped if that
    gives zero, then added as ``+`` adds it.  Only a sum with a value
    ``data`` already held can cancel to zero (a new key holds 0j + c, a
    kept term's magnitude), so only those sums are tested, each as it is
    made; an addend holds each key once, so that leaves the keys in the
    order of ``+``'s one test after the sum.  Each test is the inline
    ``abs(c) > 0.0``, with ``_kept`` called only for a term it would drop.
    ``data`` ends up as ``element + factor * addend`` would hold it, key
    order, rounding and signs of zero included, without the copy of the
    accumulator that each ``+`` makes.
    """
    get = data.get
    for key, c in terms.items():
        if factor is not None and not (abs(c := c * factor) > 0.0 or _kept(key, c)):
            continue
        old = get(key)
        if old is None:
            data[key] = 0j + c
        elif abs(c := old + c) > 0.0 or _kept(key, c):
            data[key] = c
        else:
            del data[key]


def _distance(x: "GrassmannElement", y: "GrassmannElement") -> float:
    """``(x - y).norm()`` bit for bit, without building -y, the copy of x or
    the sum: the magnitudes are summed in the order of that sum's keys, x's
    keys first, each with its difference unless it is zero, then
    the keys only in y, in y's order.  Only a difference is tested, as the
    sum tests only the sums it makes: a key only in y holds 0j + -d there,
    which has the magnitude of the kept term d."""
    left, right = x._terms, y._terms

    def magnitudes() -> Iterator[float]:
        for key, c in left.items():
            d = right.get(key)
            if d is None:
                yield abs(c)
            elif abs(c := c + -d) > 0.0 or _kept(key, c):
                yield abs(c)
        for key, d in right.items():
            if key not in left:
                yield abs(d)

    return sum(magnitudes())


class GrassmannElement:
    """An immutable sparse element of the Grassmann algebra.

    All operations return new elements; instances can be shared freely.
    Scalars (int, float, complex) mix with elements in arithmetic.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[MultiIndex, Scalar] | None = None):
        data: dict[MultiIndex, complex] = {}
        if terms:
            for mi, coeff in terms.items():
                if abs(c := complex(coeff)) > 0.0 or _kept(mi, c):
                    data[mi] = c
        self._terms = data

    @classmethod
    def _adopt(cls, data: dict[MultiIndex, complex]) -> "GrassmannElement":
        """The element on ``data``, a fresh dict of Python complex coefficients:
        ``__init__`` without its copy of every term when none is zero.
        A plain loop scans the values with the inline keep test
        ``abs(c) > 0.0`` and stops at the first that fails it; only then
        does ``_kept`` filter the terms, dropping exact zeros and refusing
        a NaN."""
        for c in data.values():
            if not abs(c) > 0.0:
                return cls._wrap({mi: c for mi, c in data.items() if _kept(mi, c)})
        return cls._wrap(data)

    @classmethod
    def _wrap(cls, data: dict[MultiIndex, complex]) -> "GrassmannElement":
        """The element on ``data``, a fresh dict of Python complex coefficients
        none of which is zero (as ``_add_into`` leaves it): no copy and no
        scan."""
        element = cls.__new__(cls)
        element._terms = data
        return element

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

    def _union(self) -> MultiIndex:
        """The multi-index of every generator that occurs."""
        return reduce(or_, self._terms, 0)

    def generators(self) -> tuple[GeneratorId, ...]:
        return index_generators(self._union())

    def blocks(self) -> set[Block]:
        return {block for block, _ in _block_masks(self._union())}

    def norm(self) -> float:
        """Sum of coefficient magnitudes; submultiplicative under products."""
        return sum(abs(c) for c in self._terms.values())

    def has_parity(self, p: Parity) -> bool:
        """Whether the element is zero or of parity ``p``; zero counts as every parity."""
        if p is Parity.MIXED:
            return not self._terms or self.parity() is p
        degree = 1 if p is Parity.ODD else 0
        for mi in self._terms:
            if (mi.bit_count() & 1) != degree:
                return False
        return True

    def parity(self) -> Parity:
        degrees = {mi.bit_count() & 1 for mi in self._terms}
        if degrees <= {0}:
            return Parity.EVEN
        if degrees == {1}:
            return Parity.ODD
        return Parity.MIXED

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "GrassmannElement | Scalar") -> "GrassmannElement":
        if type(other) is not GrassmannElement:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        data = dict(self._terms)
        _add_into(data, other._terms)
        return GrassmannElement._wrap(data)

    __radd__ = __add__

    def __sub__(self, other: "GrassmannElement | Scalar") -> "GrassmannElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other: Scalar) -> "GrassmannElement":
        return _coerce(other).__sub__(self)

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement._wrap({mi: -c for mi, c in self._terms.items()})

    def __mul__(self, other: "GrassmannElement | Scalar") -> "GrassmannElement":
        if type(other) is not GrassmannElement:
            if isinstance(other, (int, float, complex)):
                other = _native(other)
                return GrassmannElement._adopt({mi: c * other for mi, c in self._terms.items()})
            if not isinstance(other, GrassmannElement):
                return NotImplemented
        return GrassmannElement._adopt(_product(self._terms, other._terms))

    __rmul__ = __mul__  # only scalars reach it, and scalar products commute

    def __truediv__(self, other: Scalar) -> "GrassmannElement":
        if isinstance(other, (int, float, complex)):
            other = _native(other)
            return GrassmannElement._adopt({mi: c / other for mi, c in self._terms.items()})
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
        for mi in sorted(self._terms, key=lambda m: (m.bit_count(), _block_masks(m))):
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


def _native(value: Scalar) -> Scalar:
    """A scalar whose products with Python complex coefficients are Python
    complex: a complex subclass (a numpy complex scalar) becomes a complex."""
    return complex(value) if isinstance(value, complex) else value


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
    return 1, f"({c.real!r}{'-' if c.imag < 0 else '+'}{abs(c.imag)!r}i)"


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
    their partial sums do not commute.  Zero gives ``ONE`` at once.
    """
    if a.is_zero():
        return ONE
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
) -> dict[MultiIndex, GrassmannElement]:
    """The ``_image_bits`` of a substitution map, each image checked to be odd (or zero)."""
    for g, value in mapping.items():
        if not value.has_parity(Parity.ODD):
            raise ValueError(f"substitution image for {g} must be odd, got {value.parity().value}")
    return _image_bits(mapping.items())


def _image_bits(
    pairs: Iterable[tuple[GeneratorId, GrassmannElement]]
) -> dict[MultiIndex, GrassmannElement]:
    """The images of a substitution map by generator bit, as ``_substitute_odd`` takes them."""
    return {_bit_of(g): image for g, image in pairs}


def _substitute_odd(a: GrassmannElement, images: Mapping[MultiIndex, GrassmannElement]) -> GrassmannElement:
    """The homomorphism of ``substitute``, for images ``_odd_images`` has checked.

    A term is the product, in canonical generator order, of its coefficient
    and each generator's image; a term with no mapped generator is kept as
    it is, which is that product up to the signs of zero parts.  The terms
    are summed in order by ``_add_into``, as ``ZERO + t1 + t2 + ...`` sums them.

    Two kinds of term go straight into the sum: a term with no mapped
    generator, and a term c X_b whose key is one mapped bit b.  The latter
    adds, for each term v of b's image, the value ``0j + (1 * c) * v`` that
    ``c * image`` gives it, unless that product is zero; its keys are the
    image's, so each is added and tested once, as ``_add_into`` adds and
    tests it.
    """
    mapped = reduce(or_, images, 0)
    data: dict[MultiIndex, complex] = {}
    get = data.get
    for mi, coeff in a.items():
        if not mi & mapped:
            old = get(mi)
            if old is None:
                data[mi] = 0j + coeff  # a kept term's magnitude: no test, as in ``_add_into``
            elif abs(value := old + coeff) > 0.0 or _kept(mi, value):
                data[mi] = value
            else:
                del data[mi]
            continue
        image = images.get(mi)
        if image is not None:
            plus = 1 * coeff
            for key, v in image._terms.items():
                value = 0j + plus * v
                if not (abs(value) > 0.0 or _kept(key, value)):
                    continue
                old = get(key)
                if old is None:
                    data[key] = value  # 0j + value, as the sum adds it to an absent key
                elif abs(value := old + value) > 0.0 or _kept(key, value):
                    data[key] = value
                else:
                    del data[key]
            continue
        term = GrassmannElement.from_scalar(coeff)
        for bit in _canonical_bits(mi):
            factor = images.get(bit)
            term = term * (GrassmannElement._wrap({bit: 1 + 0j}) if factor is None else factor)
            if term.is_zero():
                break
        _add_into(data, term._terms)
    return GrassmannElement._wrap(data)


def _canonical_bits(mi: MultiIndex) -> list[MultiIndex]:
    """The one-bit multi-indices of ``mi`` in canonical generator order, which is bit order."""
    bits = []
    while mi:
        low = mi & -mi
        bits.append(low)
        mi ^= low
    return bits


def _strip_generator(a: GrassmannElement, g: GeneratorId, from_left: bool) -> GrassmannElement:
    """Remove g from every monomial holding it, with the sign of moving it to
    the left end (counting generators below g) or to the right end (above)."""
    bit = _bit_of(g)
    below = bit - 1  # the bits of the generators below g
    data: dict[MultiIndex, complex] = {}
    for mi, coeff in a.items():
        if not mi & bit:
            continue
        count = (mi & below).bit_count()
        if not from_left:
            count = mi.bit_count() - count - 1
        reduced = mi ^ bit
        data[reduced] = data.get(reduced, 0j) + (-1 if count & 1 else 1) * coeff
    return GrassmannElement._adopt(data)


# -- serialization ----------------------------------------------------

_FAMILY_CODE = {Family.VARIABLE: "v", Family.INCREMENT: "i", Family.AUXILIARY: "a"}
_CODE_FAMILY = {v: k for k, v in _FAMILY_CODE.items()}


def _generator_code(g: GeneratorId) -> str:
    return f"{_FAMILY_CODE[Family(g.family)]}{g.slice}.{g.component}"


_CODE = re.compile(r"([via])(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)")


def _generator_from_code(code: str) -> GeneratorId:
    match = _CODE.fullmatch(code)
    if match is None:
        raise ValueError(f"malformed generator code {code!r}")
    return GeneratorId(_CODE_FAMILY[match[1]], int(match[2]), int(match[3]))


def _json_coefficient(value: object) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        if all(isinstance(x, Real) and not isinstance(x, bool) for x in value):
            return complex(*value)
    raise ValueError(f"value {value!r} is not a [re, im] pair of numbers")


def element_to_json(a: GrassmannElement) -> dict[str, list[float]]:
    """Lossless mapping {multi-index key: [re, im]}, keys sorted for stability."""
    out: dict[str, list[float]] = {}
    for gens, coeff in a.terms():
        key = " ".join(_generator_code(g) for g in gens) if gens else "1"
        out[key] = [coeff.real, coeff.imag]
    return dict(sorted(out.items()))


def element_from_json(data: Mapping[str, Iterable[float]]) -> GrassmannElement:
    """The element of an ``element_to_json`` mapping.  A key must list distinct
    generators in canonical order, since the order fixes the sign; a
    ValueError names a key that does not, or whose code or value is malformed."""
    terms: dict[MultiIndex, complex] = {}
    for key, value in data.items():
        try:
            gens = () if key == "1" else tuple(map(_generator_from_code, key.split(" ")))
            if list(gens) != sorted(gens):
                raise ValueError("generators out of canonical order")
            terms[multi_index(gens)] = _json_coefficient(value)
        except ValueError as exc:
            raise ValueError(f"serialized key {key!r}: {exc}") from None
    return GrassmannElement(terms)
