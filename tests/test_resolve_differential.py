"""`abelian._resolve` against the oracles in `resolve_oracle`.

Every sub, quotient and witness with |G| <= 16 (witness orders: the
divisors of |G|, 2|G| and 3|G|; generator flag on and off) goes through
both public entry points twice, once with the brute-force oracle standing
in for `_resolve`; the accepted group, or the exception type and message
(which names the candidates), must agree.  So must seeded problems whose
order has two to four of the primes 2, 3, 5 and 7, against the
candidate-by-candidate search, at the seed in DIFFERENTIAL_SEED
when it is set.  Each trace `_resolve` returns must hold every partition of
v_p(|G|) exactly once at each prime p, as the p-type of an accepted group
or as a rejected type, and the oracle must reject every candidate whose
p-type was rejected.  The types `_generator_types` reads off minors must be
those of the Smith forms of every witness image, for every μ of at most 7
and seeded μ of 8 and 9, at p = 2, 3 and 5, and those of the walk over
every ascending image, for every μ of at most 10 at p = 2 and 3 with seeded
b and c; (9, …, 1) takes well under a second at every witness order; and
`_partitions` must list what the recursion lists, for k ≤ 20.
"""

import itertools
import random
import time
from unittest import mock

import pytest

import resolve_oracle
from seeds import differential_seed
from brauerkit import abelian
from brauerkit.abelian import (
    ExtensionWitness,
    FgAbGroup,
    _factorize,
    _p_type,
    resolve_extension,
    resolve_extension_by_order,
)
from brauerkit.errors import BrauerkitError
from resolve_oracle import abelian_groups_of_order, partitions

RESOLVE = abelian._resolve


def _outcome(call):
    try:
        return call()
    except (BrauerkitError, ValueError) as exc:
        return type(exc), str(exc)


def _run(call, resolve):
    """The outcome of `call` with `resolve` standing in for `abelian._resolve`,
    and the arguments and value of each call of it that returned."""
    returned = []

    def spy(*args):
        value = resolve(*args)
        returned.append((args, value))
        return value

    with mock.patch.object(abelian, "_resolve", spy):
        return _outcome(call), returned


def _check_trace(args, trace, rejected):
    """Each prime's partitions are tried once, and the oracle's `rejected`
    (candidate, reason) pairs hold every candidate of a rejected p-type."""
    sub, quot, total, witness = args
    assert trace.order == total
    rejected = {cand for cand, _ in rejected}
    for p, e in _factorize(total).items():
        kept = {_p_type(g.invariant_factors, p) for g in trace.accepted}
        tried = list(kept) + [lam for q, lam, _ in trace.rejected if q == p]
        assert sorted(tried) == sorted(partitions(e)), (p, trace)
    for p, lam, _ in trace.rejected:
        for cand in abelian_groups_of_order(total):
            if _p_type(cand.invariant_factors, p) == lam:
                assert cand in rejected, (args, p, lam, cand)


def _agree(call, oracle):
    got, traces = _run(call, RESOLVE)
    want, answers = _run(call, oracle)
    assert got == want
    if traces:  # an entry point calls _resolve once, and both returned
        (args, (_, trace)), = traces
        (_, (_, rejected)), = answers
        _check_trace(args, trace, rejected)


def _check(sub, quot, witness, oracle=resolve_oracle._resolve):
    _agree(lambda: resolve_extension(sub, quot, witness), oracle)
    _agree(lambda: resolve_extension_by_order(sub, quot.order(), witness), oracle)


def _witnesses(total):
    orders = [w for w in range(1, total + 1) if total % w == 0] + [2 * total, 3 * total]
    return [None] + [ExtensionWitness(w, flag) for w in orders for flag in (False, True)]


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


def _random_problem(rng):
    """A sub, quotient and witness whose order has 2 to 4 of the primes 2, 3,
    5 and 7, with at most 2^6, 3^4, 5^2 and 7^2."""
    primes = rng.sample([(2, 6), (3, 4), (5, 2), (7, 2)], rng.randrange(2, 5))
    total = 1
    for p, most in primes:
        total *= p ** rng.randrange(1, most + 1)
    divisors = [d for d in range(1, total + 1) if total % d == 0]
    s = rng.choice(divisors)
    sub = rng.choice(abelian_groups_of_order(s))
    quot = rng.choice(abelian_groups_of_order(total // s))
    if rng.random() < 0.5:  # a cyclic quotient is what a generator witness needs
        quot = FgAbGroup.cyclic(total // s)
    roll = rng.random()
    if roll < 0.15:
        return sub, quot, None
    # large divisors decide most problems; a few do not divide the order
    w = rng.choice(divisors[-4:]) if roll < 0.75 else rng.choice(divisors + [2 * total, 11 * total])
    return sub, quot, ExtensionWitness(w, rng.random() < 0.5)


def test_resolve_matches_the_candidate_search_on_seeded_multi_prime_problems():
    rng = random.Random(differential_seed(20261019))
    for _ in range(400):
        sub, quot, witness = _random_problem(rng)
        _check(sub, quot, witness, resolve_oracle.resolve_by_candidates)


def test_generator_types_match_the_enumeration_of_every_image():
    for n in range(8):
        for mu in partitions(n):
            for p, b in itertools.product((2, 3, 5), range(4)):
                for c in range(b + (mu[0] if mu else 0) + 2):
                    want = resolve_oracle.generator_types(p, mu, b, c)
                    assert abelian._generator_types(p, mu, b, c) == want, (p, mu, b, c)


def test_generator_types_match_the_enumeration_on_seeded_shapes():
    seed = differential_seed(20261021)
    rng = random.Random(seed)
    shapes = [list(partitions(n)) for n in (8, 9)]
    for _ in range(200):
        mu, p, b = rng.choice(rng.choice(shapes)), rng.choice((2, 3, 5)), rng.randrange(4)
        c = b + rng.randrange(mu[0] + 2)  # c − b = μ_1 + 1 has no image
        want = resolve_oracle.generator_types(p, mu, b, c)
        assert abelian._generator_types(p, mu, b, c) == want, f"seed {seed}: {(p, mu, b, c)}"


def test_generator_types_match_the_image_walk_on_seeded_shapes():
    # every μ with |μ| ≤ 10 at p = 2 and 3, each with seeded b ≤ 4 and c ≤ b + μ₁ + 1
    seed = differential_seed(20261020)
    rng = random.Random(seed)
    for mu in (mu for n in range(11) for mu in partitions(n)):
        for p in (2, 3):
            for _ in range(4):
                b = rng.randrange(5)
                c = rng.randrange(b + (mu[0] if mu else 0) + 2)
                want = resolve_oracle.generator_types_by_images(p, mu, b, c)
                assert abelian._generator_types(p, mu, b, c) == want, f"seed {seed}: {(p, mu, b, c)}"


def test_generator_types_of_many_distinct_parts_stay_fast():
    # (9, …, 1) has 3.6 million witness images, which the walk over orbit
    # representatives never lists, at any witness order
    mu = tuple(range(9, 0, -1))
    start = time.perf_counter()
    types = [abelian._generator_types(2, mu, 1, c) for c in range(12)]
    assert time.perf_counter() - start < 1.0
    # G/H has order 2, so λ is μ with one box added, and an e of order 2^10 puts it in the first row
    assert types[10] == {(10, 8, 7, 6, 5, 4, 3, 2, 1)}
    assert types[0] == types[11] == set()


def test_partitions_match_the_recursion():
    for k in range(21):
        assert list(abelian._partitions(k)) == list(partitions(k)), k
