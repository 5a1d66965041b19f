"""`abelian._resolve` against the brute-force oracle in `resolve_oracle`.

Every sub, quotient and witness with |G| <= 16 (witness orders: the
divisors of |G|, 2|G| and 3|G|; generator flag on and off) goes through both public entry points twice, once with the
oracle standing in for `_resolve`; the accepted group, the trace that
`_resolve` hands the entry point, and the exception type and message (which
names the candidates) must agree.  Where an exception takes the trace with
it, the rejection reason of every candidate is compared instead.
"""

from unittest import mock

import pytest

import resolve_oracle
from brauerkit import abelian
from brauerkit.abelian import (
    ExtensionWitness,
    FgAbGroup,
    abelian_groups_of_order,
    resolve_extension,
    resolve_extension_by_order,
)
from brauerkit.errors import BrauerkitError


def _outcome(call):
    try:
        return call()
    except (BrauerkitError, ValueError) as exc:
        return type(exc), str(exc)


def _traced(call, resolve):
    """The outcome of `call` with `resolve` standing in for `abelian._resolve`:
    the (group, trace) it returned to the entry point, or the exception."""
    returned = []

    def spy(*args):
        returned.append(resolve(*args))
        return returned[-1]

    with mock.patch.object(abelian, "_resolve", spy):
        got = _outcome(call)
    if isinstance(got, FgAbGroup):
        assert got is returned[-1][0]
        return returned[-1]
    return got


def _witnesses(total):
    orders = [w for w in range(1, total + 1) if total % w == 0] + [2 * total, 3 * total]
    return [None] + [ExtensionWitness(w, flag) for w in orders for flag in (False, True)]


def _reasons_agree(sub, quot, total, witness):
    rejection = abelian._candidate_test(sub, quot, total, witness)
    for cand in abelian_groups_of_order(total):
        want = _outcome(lambda: resolve_oracle._candidate_matches(cand, sub, quot, witness))
        if isinstance(want[0], bool):
            want = None if want[0] else want[1]
        assert _outcome(lambda: rejection(cand)) == want, (cand, sub, quot, witness)


def _agree(call, sub, quot, total, witness):
    got = _traced(call, abelian._resolve)
    want = _traced(call, resolve_oracle._resolve)
    assert got == want, (sub, quot, witness)
    if not isinstance(got[0], FgAbGroup):  # an exception took the trace with it
        _reasons_agree(sub, quot, total, witness)


def _check(sub, quot, witness):
    total = sub.order() * quot.order()
    _agree(lambda: resolve_extension(sub, quot, witness), sub, quot, total, witness)
    _agree(lambda: resolve_extension_by_order(sub, quot.order(), witness),
           sub, None, total, witness)


@pytest.mark.parametrize("total", range(1, 17))
def test_resolve_matches_brute_force_exhaustively(total):
    for s in (d for d in range(1, total + 1) if total % d == 0):
        for sub in abelian_groups_of_order(s):
            for quot in abelian_groups_of_order(total // s):
                for witness in _witnesses(total):
                    _check(sub, quot, witness)


# the o32 and o64 resolution shapes of the benchmark's algebra workload:
# sub of type mu at p = 2, cyclic quotient of order 2^b, generator witness
@pytest.mark.parametrize("mu,b", [((4,), 1), ((3,), 2), ((2, 1), 2), ((5,), 1), ((3, 1), 2)])
def test_resolve_matches_brute_force_on_benchmark_shapes(mu, b):
    sub = FgAbGroup.from_orders([2 ** m for m in mu])
    _check(sub, FgAbGroup.cyclic(2 ** b), ExtensionWitness(2 ** (mu[0] + b), True))
