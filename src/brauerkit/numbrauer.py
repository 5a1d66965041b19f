"""Brauer groups of localized rings of integers and related divisible groups.

The Brauer group of a ring of S-integers is the kernel of the sum-of-local-
invariants map out of the direct sum of local Brauer groups: each inverted
finite prime contributes a full Q/Z, each real place a Z/2, and complex
places nothing.  H^1 with Q/Z coefficients is computed from the continuous
dual of the profinite unit groups Z_p^x, and the Brauer group of a Laurent
ring splits as Br of the base plus that H^1.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

from . import take
from .abelian import FgAbGroup, _valuation
from .record import record


@record
class PlaceSpec:
    """A place of Q (or a user-supplied place of a number field).

    The local Brauer group is Q/Z at a finite place, Z/2 at a real place and
    zero at a complex place.
    """

    kind: str
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("finite", "real", "complex"):
            raise ValueError(f"unknown place kind {self.kind!r}")
        if self.kind == "finite" and not self.label:
            raise ValueError("finite places need a label (usually the prime)")

    @property
    def local_brauer(self) -> str:
        return {"finite": "full", "real": "half", "complex": "zero"}[self.kind]


def places_from_json(text: str) -> list[PlaceSpec]:
    """Places from a JSON list of objects with a string `kind` and optional
    string `label`, or from an object holding that list under `places`."""
    data = json.loads(text)
    places = []
    for i, item in enumerate(take(data if type(data) is dict else {"places": data},
                                  "places", "[object]")):
        try:
            places.append(PlaceSpec(take(item, "kind", "string"), take(item, "label", "string", "")))
        except ValueError as exc:
            raise ValueError(f"place {i}: {exc}") from None
    # unlabelled real and complex places may repeat; labelled ones may not
    labelled = [(p.kind, p.label) for p in places if p.label]
    if len(set(labelled)) != len(labelled):
        raise ValueError("a labelled place is listed twice")
    return places


@record
class DivisibleGroupDescriptor:
    """(Q/Z)^a ⊕ (⊕_p Q_p/Z_p) ⊕ finite ⊕ possibly an infinite F_2-space.

    Infinite pieces are kept symbolic; only n-torsion subgroups (which are
    finite except for the F_2 part) are ever expanded.
    """

    qz_copies: int = 0
    qpzp_primes: tuple[int, ...] = ()
    finite_part: FgAbGroup = FgAbGroup.zero()
    infinite_f2: bool = False
    infinite_f2_basis: str = ""

    def __post_init__(self):
        if self.qz_copies < 0:
            raise ValueError("qz_copies must be nonnegative")
        object.__setattr__(self, "qpzp_primes", tuple(sorted(self.qpzp_primes)))

    def is_zero(self) -> bool:
        return (self.qz_copies == 0 and not self.qpzp_primes
                and self.finite_part.is_zero() and not self.infinite_f2)

    def direct_sum(self, other: "DivisibleGroupDescriptor") -> "DivisibleGroupDescriptor":
        basis = self.infinite_f2_basis or other.infinite_f2_basis
        return DivisibleGroupDescriptor(
            self.qz_copies + other.qz_copies,
            self.qpzp_primes + other.qpzp_primes,
            self.finite_part.direct_sum(other.finite_part),
            self.infinite_f2 or other.infinite_f2,
            basis,
        )

    def n_torsion(self, n: int) -> FgAbGroup:
        """The finite n-torsion subgroup (the F_2 part must be absent)."""
        if n < 1:
            raise ValueError("n must be positive")
        if self.infinite_f2 and n % 2 == 0:
            raise ValueError("n-torsion of an infinite F_2-vector space is infinite")
        orders = [n] * self.qz_copies + [p ** _valuation(n, p) for p in self.qpzp_primes]
        torsion = FgAbGroup.from_orders(orders)
        return torsion.direct_sum(self.finite_part.torsion(n))

    def __str__(self) -> str:
        parts = []
        if self.qz_copies == 1:
            parts.append("Q/Z")
        elif self.qz_copies > 1:
            parts.append(f"(Q/Z)^{self.qz_copies}")
        for p in self.qpzp_primes:
            parts.append(f"Q_{p}/Z_{p}")
        if not self.finite_part.is_zero():
            parts.append(str(self.finite_part))
        if self.infinite_f2:
            label = f" with basis {self.infinite_f2_basis}" if self.infinite_f2_basis else ""
            parts.append(f"F_2^(∞){label}")
        return " ⊕ ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        out: dict = {
            "qz_copies": self.qz_copies,
            "qpzp_primes": list(self.qpzp_primes),
            "finite_part": self.finite_part.to_json(),
            "infinite_f2": self.infinite_f2,
        }
        if self.infinite_f2_basis:
            out["infinite_f2_basis"] = self.infinite_f2_basis
        return out

    @classmethod
    def zero(cls) -> "DivisibleGroupDescriptor":
        return cls()


def brauer_localized_integers(places: Sequence[PlaceSpec]) -> DivisibleGroupDescriptor:
    """Kernel of the sum-of-invariants map over the given places.

    With m full (finite) places and r half (real) places the kernel is
    (Q/Z)^{m-1} ⊕ (Z/2)^r when m >= 1, (Z/2)^{r-1} when m = 0 and r >= 1,
    and zero otherwise: one Q/Z of relations if any full invariant can absorb
    the sum, otherwise one Z/2 of relations among the half invariants.
    """
    m = sum(1 for p in places if p.local_brauer == "full")
    r = sum(1 for p in places if p.local_brauer == "half")
    if m >= 1:
        return DivisibleGroupDescriptor(
            qz_copies=m - 1, finite_part=FgAbGroup.from_orders([2] * r))
    if r >= 1:
        return DivisibleGroupDescriptor(finite_part=FgAbGroup.from_orders([2] * (r - 1)))
    return DivisibleGroupDescriptor.zero()


# ---------------------------------------------------------------------------
# H^1 with Q/Z coefficients
# ---------------------------------------------------------------------------


def h1_qz(inverted_primes: Iterable[int]) -> DivisibleGroupDescriptor:
    """Continuous dual of ∏_p Z_p^x over the inverted primes.

    Z_p^x ≅ Z/(p-1) × Z_p for odd p and Z/2 × Z_2 for p = 2, so each prime p
    contributes Hom(torsion, Q/Z) ⊕ Q_p/Z_p.
    """
    primes = sorted(set(inverted_primes))
    orders = []
    for p in primes:
        if p < 2:
            raise ValueError(f"{p} is not a prime")
        orders.append(2 if p == 2 else p - 1)
    return DivisibleGroupDescriptor(
        qpzp_primes=tuple(primes),
        finite_part=FgAbGroup.from_orders(orders))


@record
class H1QzReport:
    computed: DivisibleGroupDescriptor
    stated: DivisibleGroupDescriptor | None
    discrepancy: bool
    note: str = ""


def h1_qz_report(inverted_primes: Iterable[int]) -> H1QzReport:
    """h1_qz plus the recorded literature value when it disagrees.

    For the prime set {2, 3} a published value of (Z/2)^3 ⊕ Q_2/Z_2 ⊕ Q_3/Z_3
    is on record, while the unit-group decomposition gives (Z/2)^2 ⊕ ...;
    both are reported and the conflict flagged rather than resolved.
    """
    computed = h1_qz(inverted_primes)
    stated = DivisibleGroupDescriptor(
        qpzp_primes=(2, 3), finite_part=FgAbGroup.from_orders([2, 2, 2])
    ) if set(inverted_primes) == {2, 3} else None
    discrepancy = stated is not None and stated != computed
    return H1QzReport(
        computed, stated, discrepancy,
        note=("recorded value has (Z/2)^3 where the decomposition "
              "Z_2^x = Z/2 x Z_2, Z_3^x = Z/2 x Z_3 gives (Z/2)^2; "
              "both values are emitted unresolved") if discrepancy else "")


# ---------------------------------------------------------------------------
# Laurent ring
# ---------------------------------------------------------------------------


def brauer_laurent(s_places: Sequence[PlaceSpec],
                   s_primes: Iterable[int]) -> DivisibleGroupDescriptor:
    """Br(S[j^{±1}]) = Br(S) ⊕ H^1(S; Q/Z) for S a localization of Z.

    s_primes are the inverted finite primes (they must match the finite
    entries in s_places).
    """
    labels = [p.label for p in s_places if p.kind == "finite"]
    for label in labels:
        if not (label.isascii() and label.isdigit()):
            raise ValueError(f"finite place label {label!r} is not a decimal integer")
    if sorted(map(int, labels)) != sorted(set(s_primes)):
        raise ValueError("inverted primes disagree with the finite places")
    return brauer_localized_integers(s_places).direct_sum(h1_qz(s_primes))
