"""Differentiation, Berezin integration, and integral kernels for
multinomial functions of anticommuting variables.

Sign conventions, fixed once and used everywhere downstream:

* the derivative is the left derivative, d(g1...gk)/d(gj) picks up
  (-1)**(j's position from the left);
* a single-variable Berezin integral extracts the coefficient after moving
  the variable to the right end of each monomial;
* the multi-variable integral iterates single integrals with the last
  listed variable innermost, which normalizes the integral of v1*...*vk
  over (v1, ..., vk) to +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import (
    GeneratorId,
    GrassmannElement,
    MultiIndex,
    Parity,
    _add_into,
    _strip_generator,
    gen,
    substitute,
)

__all__ = [
    "SupersmoothFunction",
    "partial_derivative",
    "berezin_integrate",
    "taylor_residual",
    "apply_kernel",
    "compose_kernels",
    "grassmann_delta",
]


def derivative_element(a: GrassmannElement, g: GeneratorId) -> GrassmannElement:
    """Left derivative of an element with respect to one generator."""
    return _strip_generator(a, g, from_left=True)


def berezin_integrate(a: GrassmannElement, variables: Sequence[GeneratorId]) -> GrassmannElement:
    """Berezin integral of an element over an ordered list of variables.

    Monomials missing any listed variable contribute nothing; for the rest
    the listed variables are stripped with the sign of moving them, in
    order, to the right end.  Generators outside the list pass through as
    coefficients.
    """
    result = a
    for g in reversed(variables):
        result = _strip_generator(result, g, from_left=False)
        if result.is_zero():
            break
    return result


@dataclass(frozen=True)
class SupersmoothFunction:
    """A Grassmann element together with its ordered bound variables.

    Coefficients may come from a larger algebra: monomials of ``body`` are
    free to use generators outside ``variables`` (kernel parameters,
    expansion points), which simply ride along through every operation.
    """

    body: GrassmannElement
    variables: tuple[GeneratorId, ...]

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("bound variables must be distinct")

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def derivative(self, variable: GeneratorId) -> "SupersmoothFunction":
        if variable not in self.variables:
            raise ValueError(f"unknown variable {variable}")
        return SupersmoothFunction(derivative_element(self.body, variable), self.variables)

    def integrate(self, variables: Sequence[GeneratorId] | None = None) -> GrassmannElement:
        chosen = self.variables if variables is None else tuple(variables)
        for g in chosen:
            if g not in self.variables:
                raise ValueError(f"unknown variable {g}")
        return berezin_integrate(self.body, chosen)

    def __call__(self, *values: GrassmannElement) -> GrassmannElement:
        """Evaluate at odd elements, one per bound variable."""
        if len(values) != len(self.variables):
            raise ValueError(f"expected {len(self.variables)} values, got {len(values)}")
        return substitute(self.body, dict(zip(self.variables, values)))

    def __str__(self) -> str:
        return str(self.body)


def partial_derivative(f: SupersmoothFunction, variable: GeneratorId) -> SupersmoothFunction:
    return f.derivative(variable)


def taylor_residual(
    f: SupersmoothFunction,
    base: Sequence[GrassmannElement],
    shift: Sequence[GrassmannElement],
) -> float:
    """Norm of f(base + shift) minus its full derivative expansion at base.

    The expansion sums, over every subset of the variables, the shift
    monomial times the correspondingly ordered iterated derivative
    evaluated at the base point.  This is an identity, so the result is
    floating-point noise; it is returned for checking rather than asserted.
    """
    n = f.dimension
    if len(base) != n or len(shift) != n:
        raise ValueError("base and shift must match the function dimension")
    for value in (*base, *shift):
        if not value.has_parity(Parity.ODD):
            raise ValueError("base and shift entries must be odd elements")

    lhs = f(*[b + s for b, s in zip(base, shift)])
    rhs: dict[MultiIndex, complex] = {}
    for subset in _subsets(range(n)):
        derived = f
        for j in subset:  # rightmost derivative in the operator string acts first
            derived = derived.derivative(f.variables[j])
        term = derived(*base)
        for j in reversed(subset):
            term = shift[j] * term
        _add_into(rhs, term._terms)
    return (lhs - GrassmannElement._wrap(rhs)).norm()


def _subsets(indices: Iterable[int]) -> Iterable[tuple[int, ...]]:
    items = tuple(indices)
    for mask in range(1 << len(items)):
        yield tuple(items[i] for i in range(len(items)) if mask >> i & 1)


def apply_kernel(kernel: SupersmoothFunction, f: SupersmoothFunction) -> SupersmoothFunction:
    """Contract a two-argument kernel against a function of its second set.

    ``f.variables`` must be bound by the kernel and form its integrated
    set; the result is a function of the kernel's remaining variables.
    No renaming happens here, so the caller controls every sign.
    """
    inner = f.variables
    remaining = tuple(v for v in kernel.variables if v not in inner)
    if len(remaining) + len(inner) != len(kernel.variables):
        raise ValueError("kernel must bind the integrated variable set")
    if set(remaining) & set(inner):
        raise ValueError("kernel variable sets must be disjoint")
    body = berezin_integrate(kernel.body * f.body, inner)
    return SupersmoothFunction(body, remaining)


def compose_kernels(
    outer: SupersmoothFunction,
    inner: SupersmoothFunction,
    over: Sequence[GeneratorId],
) -> SupersmoothFunction:
    """Kernel of the composed operator, contracting the shared set ``over``."""
    over = tuple(over)
    body = berezin_integrate(outer.body * inner.body, over)
    remaining = tuple(v for v in outer.variables if v not in over) + tuple(
        v for v in inner.variables if v not in over
    )
    return SupersmoothFunction(body, remaining)


def grassmann_delta(
    first: Sequence[GeneratorId], second: Sequence[GeneratorId]
) -> SupersmoothFunction:
    """Reproducing kernel: the ordered product of (first_i - second_i)."""
    if len(first) != len(second):
        raise ValueError("variable sets must have equal length")
    body = GrassmannElement.from_scalar(1.0)
    for u, v in zip(first, second):
        body = body * (gen(u) - gen(v))
    return SupersmoothFunction(body, tuple(first) + tuple(second))
