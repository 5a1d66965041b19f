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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .abelian import FgAbGroup
from .errors import DensityUnknown


@dataclass(frozen=True)
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


def places_from_json(text: str) -> List[PlaceSpec]:
    data = json.loads(text)
    items = data["places"] if isinstance(data, dict) else data
    if not isinstance(items, list):
        raise ValueError("places must be a JSON list of place objects")
    for item in items:
        if not (isinstance(item, dict) and isinstance(item.get("kind"), str)):
            raise ValueError(f"place {item!r} is not an object with a string 'kind'")
    return [PlaceSpec(item["kind"], item.get("label", "")) for item in items]


@dataclass(frozen=True)
class DivisibleGroupDescriptor:
    """(Q/Z)^a ⊕ (⊕_p Q_p/Z_p) ⊕ finite ⊕ possibly an infinite F_2-space.

    Infinite pieces are kept symbolic; only n-torsion subgroups (which are
    finite except for the F_2 part) are ever expanded.
    """

    qz_copies: int = 0
    qpzp_primes: Tuple[int, ...] = ()
    finite_part: FgAbGroup = field(default_factory=FgAbGroup.zero)
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
        orders = [n] * self.qz_copies
        for p in self.qpzp_primes:
            q = 1
            m = n
            while m % p == 0:
                m //= p
                q *= p
            if q > 1:
                orders.append(q)
        torsion = FgAbGroup.from_orders(orders)
        return torsion.direct_sum(self.finite_part.torsion(n))

    def contains_summand(self, other: "DivisibleGroupDescriptor") -> bool:
        """Componentwise comparison: does this descriptor contain the other
        as a direct summand?  (Finite parts compare by invariant factors.)"""
        if other.qz_copies > self.qz_copies or (other.infinite_f2 and not self.infinite_f2):
            return False
        mine = list(self.qpzp_primes)
        for p in other.qpzp_primes:
            if p not in mine:
                return False
            mine.remove(p)
        theirs = list(other.finite_part.invariant_factors)
        pool = list(self.finite_part.invariant_factors)
        for d in theirs:
            if d not in pool:
                return False
            pool.remove(d)
        return other.finite_part.free_rank <= self.finite_part.free_rank

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

    def to_json(self) -> Dict:
        out: Dict = {
            "qz_copies": self.qz_copies,
            "qpzp_primes": list(self.qpzp_primes),
            "finite_part": self.finite_part.to_json(),
            "infinite_f2": self.infinite_f2,
        }
        if self.infinite_f2_basis:
            out["infinite_f2_basis"] = self.infinite_f2_basis
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "DivisibleGroupDescriptor":
        return cls(
            data.get("qz_copies", 0),
            tuple(data.get("qpzp_primes", ())),
            FgAbGroup.from_json(data["finite_part"]) if "finite_part" in data else FgAbGroup.zero(),
            data.get("infinite_f2", False),
            data.get("infinite_f2_basis", ""),
        )

    @classmethod
    def zero(cls) -> "DivisibleGroupDescriptor":
        return cls()

    @classmethod
    def finite(cls, group: FgAbGroup) -> "DivisibleGroupDescriptor":
        return cls(finite_part=group)


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


def brute_force_invariant_kernel_order(n: int, m: int, r: int) -> int:
    """Order of the n-torsion of ker(⊕ invariants → Q/Z) by direct count.

    Full places contribute Z/n (elements a/n), half places contribute their
    n-torsion in Z/2 (trivial unless n is even); count the tuples whose
    invariants sum to zero in Q/Z.
    """
    import itertools

    half_vals = [0, n // 2] if n % 2 == 0 else [0]
    count = 0
    for full in itertools.product(range(n), repeat=m):
        for half in itertools.product(half_vals, repeat=r):
            if (sum(full) + sum(half)) % n == 0:
                count += 1
    return count


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


@dataclass(frozen=True)
class H1QzReport:
    computed: DivisibleGroupDescriptor
    stated: Optional[DivisibleGroupDescriptor]
    discrepancy: bool
    note: str = ""


def h1_qz_report(inverted_primes: Iterable[int]) -> H1QzReport:
    """h1_qz plus the recorded literature value when it disagrees.

    For the prime set {2, 3} a published value of (Z/2)^3 ⊕ Q_2/Z_2 ⊕ Q_3/Z_3
    is on record, while the unit-group decomposition gives (Z/2)^2 ⊕ ...;
    both are reported and the conflict flagged rather than resolved.
    """
    computed = h1_qz(inverted_primes)
    if set(inverted_primes) == {2, 3}:
        stated = DivisibleGroupDescriptor(
            qpzp_primes=(2, 3), finite_part=FgAbGroup.from_orders([2, 2, 2]))
        return H1QzReport(
            computed, stated, discrepancy=True,
            note=("recorded value has (Z/2)^3 where the decomposition "
                  "Z_2^x = Z/2 x Z_2, Z_3^x = Z/2 x Z_3 gives (Z/2)^2; "
                  "both values are emitted unresolved"))
    return H1QzReport(computed, None, discrepancy=False)


# ---------------------------------------------------------------------------
# Laurent ring, affine line, localization sequence
# ---------------------------------------------------------------------------


def brauer_laurent(s_places: Sequence[PlaceSpec],
                   s_primes: Iterable[int]) -> DivisibleGroupDescriptor:
    """Br(S[j^{±1}]) = Br(S) ⊕ H^1(S; Q/Z) for S a localization of Z.

    s_primes are the inverted finite primes (they must match the finite
    entries in s_places).
    """
    finite_labels = sorted(int(p.label) for p in s_places if p.kind == "finite")
    if finite_labels != sorted(set(s_primes)):
        raise ValueError("inverted primes disagree with the finite places")
    return brauer_localized_integers(s_places).direct_sum(h1_qz(s_primes))


@dataclass(frozen=True)
class AffineBaseDescriptor:
    """A regular base for the affine-line comparison Br(S) → Br(S[x]).

    The p-local comparison needs Spec S[1/p] dense in Spec S; density facts
    are recorded per prime, or wholesale for localizations of Z (removing
    finitely many closed points keeps a dense open).
    """

    name: str
    brauer: Optional[DivisibleGroupDescriptor]  # None: purely symbolic (a field)
    dense_after_inverting: Mapping[int, bool] = field(default_factory=dict)
    all_primes_dense: bool = False


@dataclass(frozen=True)
class AffineLineBrauer:
    base_name: str
    brauer: Optional[DivisibleGroupDescriptor]
    prime_validity: Tuple[Tuple[int, str], ...]
    symbolic: bool = False


def brauer_affine_line(base: AffineBaseDescriptor,
                       primes: Iterable[int] = (2, 3, 5, 7)) -> AffineLineBrauer:
    """Br(S[x]) = Br(S), prime by prime, with density annotations.

    Raises DensityUnknown when the p-local validity cannot be certified for
    one of the requested primes.
    """
    annotations = []
    for p in sorted(set(primes)):
        if base.all_primes_dense or base.dense_after_inverting.get(p):
            annotations.append((p, "valid: Spec S[1/p] dense"))
        elif p in base.dense_after_inverting:  # recorded as not dense
            annotations.append((p, "not applicable: Spec S[1/p] not dense"))
        else:
            raise DensityUnknown(
                f"no density fact for p = {p} on base {base.name}")
    if base.brauer is None:
        return AffineLineBrauer(base.name, None, tuple(annotations), symbolic=True)
    return AffineLineBrauer(base.name, base.brauer, tuple(annotations))


@dataclass(frozen=True)
class SymbolicBrauerExtension:
    sub: DivisibleGroupDescriptor
    quot: DivisibleGroupDescriptor


def localization_sequence(br_r_p: DivisibleGroupDescriptor,
                          h1_rmodf: DivisibleGroupDescriptor,
                          split: bool):
    """0 → Br(R)_(p) → Br(R[1/f])_(p) → H^1(R/f; Q/Z)_(p) → 0.

    Returns the direct sum when the sequence is split (the cyclic-algebra
    section), otherwise the extension data symbolically.
    """
    if split:
        return br_r_p.direct_sum(h1_rmodf)
    return SymbolicBrauerExtension(br_r_p, h1_rmodf)
