"""Independent references for the benchmark's correctness checks.

Nothing here imports ``berezin``.  A small Grassmann algebra on bit masks
(bit j is the j-th generator, monomials in ascending bit order) builds the
Hamiltonian matrix of an even second-order operator straight from its
definition, ``scipy.linalg.expm`` exponentiates it, and numpy closed forms
give the continuum limits of the tracked ``converge`` quantities.  The
program's own oracle (``hamiltonian_matrix`` plus ``_expm``) is never used
as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Element = dict  # {mask: complex}


# -- a Grassmann algebra on bit masks ----------------------------------


def _sign(a: int, b: int) -> int:
    """Sign of reordering the concatenation a*b of disjoint monomials."""
    swaps = 0
    while b:
        low = b & -b
        swaps += (a >> low.bit_length()).bit_count()
        b ^= low
    return -1 if swaps & 1 else 1


def mul(x: Element, y: Element) -> Element:
    out: Element = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            if ma & mb:
                continue
            m = ma | mb
            out[m] = out.get(m, 0j) + _sign(ma, mb) * ca * cb
    return out


def add(*elements: Element, scale: tuple | None = None) -> Element:
    out: Element = {}
    for k, x in enumerate(elements):
        s = 1.0 if scale is None else scale[k]
        for m, c in x.items():
            out[m] = out.get(m, 0j) + s * c
    return out


def derivative(x: Element, j: int) -> Element:
    """Left derivative by generator j: sign of the generators below it."""
    bit = 1 << j
    out: Element = {}
    for m, c in x.items():
        if m & bit:
            sign = -1 if (m & (bit - 1)).bit_count() & 1 else 1
            out[m ^ bit] = out.get(m ^ bit, 0j) + sign * c
    return out


def integrate(x: Element, generators) -> Element:
    """Berezin integral over an ordered generator list, last one innermost,
    so that integrating g1*...*gk over (g1, ..., gk) gives +1."""
    for j in reversed(tuple(generators)):
        bit = 1 << j
        out: Element = {}
        for m, c in x.items():
            if m & bit:
                sign = -1 if (m >> (j + 1)).bit_count() & 1 else 1
                out[m ^ bit] = out.get(m ^ bit, 0j) + sign * c
        x = out
    return x


def norm(x: Element) -> float:
    return float(sum(abs(c) for c in x.values()))


# -- Hamiltonians and their semigroups ---------------------------------


@dataclass(frozen=True)
class Hamiltonian:
    """H = v + i alpha^j d_j + (1/2) g^{kj} d_j d_k on n generators.

    ``drift[j]`` is alpha^j, ``diffusion[j][a]`` is c^j_a, and the
    second-order coefficient is g^{kj} = e^{ab} c^k_b c^j_a with the
    pairing e^{2i-1, 2i} = +1 = -e^{2i, 2i-1}.
    """

    n: int
    m: int
    potential: Element
    drift: tuple
    diffusion: tuple

    def _g(self, k: int, j: int) -> Element:
        out: Element = {}
        for a in range(0, self.m, 2):  # (a, b) = (2i-1, 2i) and its reverse
            out = add(out, mul(self.diffusion[k][a + 1], self.diffusion[j][a]))
            out = add(out, mul(self.diffusion[k][a], self.diffusion[j][a + 1]), scale=(1.0, -1.0))
        return out

    def apply(self, f: Element) -> Element:
        out = mul(self.potential, f)
        for j in range(self.n):
            out = add(out, mul(self.drift[j], derivative(f, j)), scale=(1.0, 1j))
        for k in range(self.n):
            dk = derivative(f, k)
            for j in range(self.n):
                ddf = derivative(dk, j)
                if ddf:
                    out = add(out, mul(self._g(k, j), ddf), scale=(1.0, 0.5))
        return out

    def matrix(self) -> np.ndarray:
        dim = 1 << self.n
        h = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            for row, c in self.apply({col: 1.0}).items():
                h[row, col] += c
        return h

    def semigroup(self, t: float) -> np.ndarray:
        """exp(-t H) on the monomial basis indexed by mask."""
        from scipy.linalg import expm  # imported here so timing runs can load this module without it

        return expm(-t * self.matrix())


def _const(value) -> Element:
    return {0: complex(value)} if value else {}


def example(name: str, r=1.0, c=1.0, b=1.0, lam=0.0) -> Hamiltonian:
    """The five bundled two-variable Hamiltonians, from their definitions."""
    zero: Element = {}
    identity = ((_const(1.0), zero), (zero, _const(1.0)))
    if name == "flat":
        return Hamiltonian(2, 2, zero, (zero, zero), identity)
    if name == "flat_potential":
        return Hamiltonian(2, 2, _const(lam), (zero, zero), identity)
    if name == "ou":
        noise = ((_const(c), zero), (zero, _const(c)))
        return Hamiltonian(2, 2, zero, ({1: -1j * r}, {2: -1j * r}), noise)
    if name == "oscillator":
        return Hamiltonian(2, 2, {3: -1.0}, (zero, zero), identity)
    if name == "quartic":
        field = {0: 1j * c, 3: 1j * b / c}
        return Hamiltonian(2, 2, zero, (zero, zero), ((field, zero), (zero, field)))
    raise ValueError(f"unknown Hamiltonian {name!r}")


def apply_matrix(u: np.ndarray, f: Element) -> Element:
    vec = np.zeros(u.shape[0], dtype=complex)
    for m, c in f.items():
        vec[m] = c
    return {m: complex(c) for m, c in enumerate(u @ vec) if c != 0}


# -- closed forms ------------------------------------------------------


def closed_form_operator(name: str, t: float, r=1.0, c=1.0, b=1.0, lam=0.0) -> np.ndarray:
    """exp(-t H) of the bundled examples, basis (1, x1, x2, x1 x2) by mask."""
    u = np.eye(4, dtype=complex)
    if name in ("flat", "flat_potential"):
        u[0, 3] = t
        if name == "flat_potential":
            u *= math.exp(-lam * t)
    elif name == "ou":
        decay = math.exp(-r * t)
        u[1, 1] = u[2, 2] = decay
        u[3, 3] = decay * decay
        u[0, 3] = c * c / (2 * r) * (1 - decay * decay)
    elif name == "oscillator":
        u[0, 0] = u[3, 3] = math.cosh(t)
        u[0, 3] = u[3, 0] = math.sinh(t)
    elif name == "quartic":
        u[3, 3] = math.exp(-2 * b * t)
        u[0, 3] = c * c / (2 * b) * (math.exp(-2 * b * t) - 1)
    else:
        raise ValueError(f"unknown Hamiltonian {name!r}")
    return u


def quartic_reference_gap(t: float, b: float) -> float:
    """Top-slot gap between the quartic's reference kernel and exp(-t H)."""
    return abs(1.0 - math.exp(-2.0 * b * t))


def converge_limit(quantity: str, t: float, r=1.0, c=1.0, b=1.0) -> float:
    """Continuum limit of a tracked ``converge`` quantity."""
    if quantity == "ou_xx":
        return c * c / (2 * r) * (1 - math.exp(-2 * r * t))
    name = {"oscillator_c0": "oscillator", "flat_c0": "flat", "quartic_xx": "quartic"}[quantity]
    top = example(name, r=r, c=c, b=b).semigroup(t)[:, 3]
    return float((top[3] if quantity == "quartic_xx" else top[0]).real)


def ou_xx_grid(t: float, steps: int, r: float, c: float) -> float:
    """Exact value of E[zeta1 zeta2] on the uniform grid of ``steps`` slices:
    c^2 dt sum_{k<N} (1 - r dt)^{2k}."""
    dt = t / steps
    q = (1 - r * dt) ** 2
    return c * c * dt * math.fsum(q**k for k in range(steps))


# -- kernels -----------------------------------------------------------


def kernel_operator(kernel: Element, n: int) -> np.ndarray:
    """Operator of a kernel K(x, y): (U f)(x) = integral over y of K f(y).

    Bits 0..n-1 are the output variables x, bits n..2n-1 the integrated y.
    """
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    inner = tuple(range(n, 2 * n))
    for col in range(dim):
        image = integrate(mul(kernel, {col << n: 1.0}), inner)
        for row, c in image.items():
            if row >> n:
                raise ValueError("kernel image depends on the integrated variables")
            u[row, col] += c
    return u
