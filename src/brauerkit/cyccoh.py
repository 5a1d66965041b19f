"""Cohomology of cyclic groups via the standard 2-periodic resolution.

For a C_n-module M with generator acting by sigma, the complex
    M --(sigma-1)--> M --N--> M --(sigma-1)--> ...
with N = 1 + sigma + ... + sigma^{n-1} computes H^s(C_n; M).  H^s for
s >= 1 depends only on the parity of s, so a row is at most three distinct
groups: `cohomology_row` builds sigma - 1 and N once for the whole row, and
`group_cohomology` runs the same code for its one degree.
"""

from __future__ import annotations

from collections.abc import Sequence

from .abelian import FgAbGroup, GroupHom, hom_kernel, homology
from .errors import NotAnAction
from .record import record


@record
class CyclicModule:
    group: FgAbGroup
    sigma: GroupHom
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise NotAnAction("the acting group must have positive order")
        if not (self.sigma.source.same_structure(self.group)
                and self.sigma.target.same_structure(self.group)):
            raise NotAnAction("sigma must be an endomorphism of the module")
        # source and target match the group, so the matrices decide
        if self.sigma.power(self.n).matrix != GroupHom.identity(self.group).matrix:
            raise NotAnAction(f"sigma^{self.n} is not the identity")


def trivial(group: FgAbGroup, n: int = 2) -> CyclicModule:
    """The module with trivial C_n-action."""
    return CyclicModule(group, GroupHom.identity(group), n)


def sign(group: FgAbGroup, n: int = 2) -> CyclicModule:
    """The module where the generator acts by -1 (n must be even or the
    action trivial on 2-torsion for this to define an action)."""
    return CyclicModule(group, GroupHom.scalar(group, -1), n)


def _norm(m: CyclicModule) -> GroupHom:
    """N_n = 1 + sigma + ... + sigma^{n-1} from the binary digits of n, by
    N_2k = N_k + sigma^k N_k and N_k+1 = 1 + sigma N_k: O(log n) compositions."""
    one = GroupHom.identity(m.group)
    total, power = one, m.sigma  # N_k and sigma^k, starting at k = 1
    for bit in bin(m.n)[3:]:
        total = total.add(power.compose(total))
        power = power.compose(power)
        if bit == "1":
            total = one.add(m.sigma.compose(total))
            power = m.sigma.compose(power)
    return total


def group_cohomology(m: CyclicModule, s: int) -> FgAbGroup:
    """H^s(C_n; M) from the 2-periodic resolution."""
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
    """H^s for each s in `degrees`, each 0, 1 or 2, from one sigma - 1 and,
    if a positive degree is asked for, one N."""
    sm1 = m.sigma.sub(GroupHom.identity(m.group))
    nm = _norm(m) if any(degrees) else None
    out = []
    for s in degrees:
        if s == 0:
            out.append(hom_kernel(sm1)[0])
        elif s == 1:  # ker(N)/im(sigma-1)
            out.append(homology(nm, sm1))
        else:  # ker(sigma-1)/im(N)
            out.append(homology(sm1, nm))
    return out
