"""Character-theoretic oracle for invariant dimensions.

Computes the dimension of the fixed subspace of W(n; k, a, b) by averaging
characters over conjugacy classes instead of materializing any vectors,
so it scales far past the explicit kernel engine and serves as an
independent cross-check of it. On a class of cycle type lambda, the
exterior-power characters of the (n+1)-dimensional permutation module P
are read off one generating function,

    sum_k chi_{wedge^k P}(sigma) t^k = det(1 + t sigma)
                                     = prod_{c in lambda} (1 - (-t)^c),

because a c-cycle has the c-th roots of unity as eigenvalues (Macdonald,
Symmetric Functions and Hall Polynomials, I.2). P is the standard
representation rho plus the trivial one, so dividing by (1 + t) leaves
rho; the wedge part of W is built on rho + rho, whose generating
function is the square. Every leg, dual or plain, contributes the
character of rho, (fixed points) - 1. All arithmetic is on integers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .symgroup import conjugacy_classes

if TYPE_CHECKING:
    from .spaces import SpaceDescriptor


@lru_cache(maxsize=None)
def wedge_character(cycle_type: tuple[int, ...]) -> tuple[int, ...]:
    """Characters of wedge^k (rho + rho), k = 0..2n, on one class.

    ``cycle_type`` is a partition of n+1. Entry k is the coefficient of
    t^k in (det(1 + t sigma) / (1 + t))^2. Memoised on the cycle type,
    since :func:`invariant_dim` asks for every class of every space.
    """
    det = [1] + [0] * sum(cycle_type)
    degree = 0
    for c in cycle_type:  # times 1 - (-1)^c t^c, in place from the top
        sign = -((-1) ** c)
        for i in range(degree, -1, -1):
            det[i + c] += sign * det[i]
        degree += c
    # Division by 1 + t is exact: sigma fixes the sum of the basis
    # vectors of P, so t = -1 is a root of det(1 + t sigma).
    rho = [det[0]]
    for x in det[1:-1]:
        rho.append(x - rho[-1])
    square = [0] * (2 * len(rho) - 1)
    for i, x in enumerate(rho):
        for j, y in enumerate(rho):
            square[i + j] += x * y
    return tuple(square)


def invariant_dim(s: SpaceDescriptor) -> int:
    """Dimension of the fixed subspace of W(n; k, a, b) by class averaging."""
    total = 0
    for cls in conjugacy_classes(s.n):
        chi = wedge_character(cls.cycle_type)
        if s.k < len(chi):
            rho = cls.cycle_type.count(1) - 1
            total += cls.class_size * chi[s.k] * rho ** (s.a + s.b)
    order = math.factorial(s.n + 1)
    if total % order or total < 0:
        raise RuntimeError(f"non-integral invariant average {total}/{order} for {s}")
    return total // order
