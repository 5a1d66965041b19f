"""Cohomology of cyclic groups whose generator acts by 1 or by -1.

For a C_n-module M with generator acting by sigma, the standard 2-periodic
resolution (Brown, *Cohomology of Groups*, GTM 87, §III.1) gives
    H^0 = ker a,    H^odd = ker N / aM,    H^even>0 = ker a / NM
with a = sigma - 1 and N = 1 + sigma + ... + sigma^{n-1}.  For sigma = 1,
a = 0 and N = n; for sigma = -1, a = -2 and N = n mod 2.  Both maps are
scalars, so each subquotient ker(b)/aM is taken summand by summand: on Z/d
it is cyclic of order gcd(b, d)·gcd(a, d)/d, and on Z it is Z/|a| (Z when
a = 0 as well) if b = 0 and 0 otherwise.  No matrix is built.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .abelian import FgAbGroup
from .errors import NotAnAction
from .record import record


@record
class CyclicModule:
    group: FgAbGroup
    sigma: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise NotAnAction("the acting group must have positive order")
        if type(self.sigma) is not int or self.sigma not in (1, -1):
            raise NotAnAction("sigma must act by 1 or -1")
        # -1 has order 2 unless 2M = 0
        if self.sigma == -1 and self.n % 2 and self.group.exponent() not in (1, 2):
            raise NotAnAction(f"sigma^{self.n} is not the identity")


def trivial(group: FgAbGroup, n: int = 2) -> CyclicModule:
    """The module with trivial C_n-action."""
    return CyclicModule(group, 1, n)


def sign(group: FgAbGroup, n: int = 2) -> CyclicModule:
    """The module where the generator acts by -1 (n must be even or the
    action trivial on 2-torsion for this to define an action)."""
    return CyclicModule(group, -1, n)


def group_cohomology(m: CyclicModule, s: int) -> FgAbGroup:
    """H^s(C_n; M) from the closed forms of the 2-periodic resolution."""
    if s < 0:
        raise ValueError("cohomological degree must be nonnegative")
    return _cohomology(m, (0 if s == 0 else 2 - s % 2,))[0]


def cohomology_row(m: CyclicModule, s_max: int) -> list[FgAbGroup]:
    """[H^0, ..., H^{s_max}]; entries for s >= 1 are 2-periodic."""
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    out = _cohomology(m, range(min(s_max, 2) + 1))
    while len(out) < s_max + 1:
        out.append(out[-2])
    return out


def _cohomology(m: CyclicModule, degrees: Sequence[int]) -> list[FgAbGroup]:
    """H^s for each s in `degrees`, each 0, 1 or 2, as ker(b)/cM."""
    a = m.sigma - 1
    norm = m.n if m.sigma == 1 else m.n % 2
    maps = ((a, 0), (norm, a), (a, norm))
    return [_scalar_subquotient(m.group, *maps[s]) for s in degrees]


def _scalar_subquotient(group: FgAbGroup, b: int, c: int) -> FgAbGroup:
    """ker(b)/cM for integers b, c with bc = 0 on M, one summand at a time."""
    return FgAbGroup.from_orders(
        gcd(b, d) * gcd(c, d) // d if d else (abs(c) if b == 0 else 1)
        for d in group.generator_orders())
