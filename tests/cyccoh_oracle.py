"""Cyclic-group cohomology from the 2-periodic resolution, kept as the
oracle for the closed forms in `cyccoh`.

sigma is any endomorphism of M given as a GroupHom, not only 1 or -1.  The
norm N = 1 + sigma + ... + sigma^{n-1} is summed one power at a time, each
power one composition past the last, and H^s is read from the complex
    M --(sigma-1)--> M --N--> M --(sigma-1)--> ...
through `hom_kernel` and `homology`.  It imports nothing from
`brauerkit.cyccoh`.
"""

from __future__ import annotations

from typing import List

from brauerkit.abelian import FgAbGroup, GroupHom, hom_kernel, homology
from brauerkit.errors import NotAnAction


def _combine(f: GroupHom, g: GroupHom, c: int) -> GroupHom:
    """f + c*g, entry by entry."""
    return GroupHom(f.source, f.target, tuple(tuple(x + c * y for x, y in zip(r, q))
                                              for r, q in zip(f.matrix, g.matrix)))


def _identity(group: FgAbGroup) -> GroupHom:
    k = group.num_generators
    return GroupHom(group, group, tuple(
        tuple(1 if i == j else 0 for j in range(k)) for i in range(k)))


class CyclicModule:
    """M with the generator of C_n acting by sigma, and the maps of its complex."""

    def __init__(self, group: FgAbGroup, sigma: GroupHom, n: int):
        if n < 1:
            raise NotAnAction("the acting group must have positive order")
        if not (sigma.source.same_structure(group) and sigma.target.same_structure(group)):
            raise NotAnAction("sigma must be an endomorphism of the module")
        one = _identity(group)
        power, norm = one, _combine(one, one, -1)  # sigma^0 and the empty sum
        for _ in range(n):
            norm = _combine(norm, power, 1)
            power = sigma.compose(power)
        if power.matrix != one.matrix:
            raise NotAnAction(f"sigma^{n} is not the identity")
        self.group, self.sigma, self.n = group, sigma, n
        self.sigma_minus_one, self.norm = _combine(sigma, one, -1), norm


def trivial(group: FgAbGroup, n: int = 2) -> CyclicModule:
    return CyclicModule(group, _identity(group), n)


def sign(group: FgAbGroup, n: int = 2) -> CyclicModule:
    k = group.num_generators
    return CyclicModule(group, GroupHom(group, group, tuple(
        tuple(-1 if i == j else 0 for j in range(k)) for i in range(k))), n)


def group_cohomology(m: CyclicModule, s: int) -> FgAbGroup:
    """H^0 = ker(sigma-1), H^odd = ker(N)/im(sigma-1), H^even = ker(sigma-1)/im(N)."""
    if s < 0:
        raise ValueError("cohomological degree must be nonnegative")
    if s == 0:
        return hom_kernel(m.sigma_minus_one)[0]
    if s % 2:
        return homology(m.norm, m.sigma_minus_one)
    return homology(m.sigma_minus_one, m.norm)


def cohomology_row(m: CyclicModule, s_max: int) -> List[FgAbGroup]:
    """[H^0, ..., H^{s_max}], each degree on its own."""
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    return [group_cohomology(m, s) for s in range(s_max + 1)]
