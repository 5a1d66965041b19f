"""Does an étale cover family kill the nontrivial class of LBr(KO) = Z/2?

The paper's splitting statement for LBr(KO), checked against the shipped
ring descriptors in `test_acceptance.py` and `test_kofam.py`.  No CLI verb
reports it, so it lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from brauerkit.errors import NoFact
from brauerkit.kofam import EtaleRingDescriptor


@dataclass(frozen=True)
class SplittingReport:
    splits: bool
    faithful: bool
    kills_per_cover: Tuple[Tuple[str, bool], ...]
    partial: bool
    note: str = ""


def lbr_ko_splitting_check(covers: Sequence[EtaleRingDescriptor]) -> SplittingReport:
    """Does the étale cover family kill the nontrivial class of LBr(KO)?

    A cover kills the class when 2 is inverted (the class lives at the prime
    2) or when every residue field of R/2 has even degree over F_2 (the
    class restricts to H^1(F_{2^m}; Z/2) along the degree-m extension, where
    an even-degree field absorbs the nontrivial F_2-torsor).  The family
    must also be faithful: no prime may be inverted by every cover.
    """
    if not covers:
        raise NoFact("splitting check needs at least one cover")
    kills = []
    for r in covers:
        if 2 in r.inverted_primes:
            kills.append((r.name, True))
        elif r.residue_field_degrees_at_2 and \
                all(m % 2 == 0 for m in r.residue_field_degrees_at_2):
            kills.append((r.name, True))
        else:
            kills.append((r.name, False))
    all_kill = all(k for _, k in kills)
    inverted = set(covers[0].inverted_primes)
    for r in covers[1:]:
        inverted &= set(r.inverted_primes)
    faithful = not inverted
    partial = all_kill and not faithful
    note = ""
    if partial:
        note = ("every cover kills the class, but the primes "
                f"{sorted(inverted)} are inverted throughout, so the family "
                "is only faithful away from them")
    return SplittingReport(all_kill and faithful, faithful, tuple(kills), partial, note)
