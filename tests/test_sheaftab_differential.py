"""`sheaftab.cohomology` and `cohomology_order` against the two-pass oracle
in `sheaftab_oracle`.

Every extension of two leaf symbols under six witnesses, extensions nested
one level on either side, and direct sums holding extensions go through
both evaluators for s in {0, 1, 2} on A1, SpecZ and SpecF2.  The value
(group, descriptor, or Unknown with its reason and rule) and the order (or
the `NoFact` message), or the exception either call raises, must agree.
The R5 charp kernel depends only on s, so both sides share one cached copy
of it.  The one known divergence, an exception from a term that only the
oracle's second pass evaluates, is pinned by its own test below.
"""

import functools
import itertools

import pytest

import sheaftab_oracle
from brauerkit import sheaftab
from brauerkit.abelian import ExtensionWitness, FgAbGroup
from brauerkit.errors import BrauerkitError, NoFact
from brauerkit.sheaftab import (
    ClosedPush,
    Constant,
    DirectSum,
    KStarVShriek,
    QuasiCoherent,
    R1jGm,
    SheafExtension,
    Unknown,
)

C = FgAbGroup.cyclic
LEAVES = (
    Constant(C(2)), Constant(C(4)), Constant(FgAbGroup.free(1)), Constant(C(25)),
    ClosedPush("(2,j)", C(2), "SpecF2"), ClosedPush("(2,j)", C(4), "SpecF2"),
    ClosedPush("j=0", C(5), "SpecZ"), ClosedPush("j=0", C(3), "SpecZ"),
    QuasiCoherent("O/(2,j)"), QuasiCoherent("O"), KStarVShriek(), R1jGm(),
)
WITNESSES = (None, ExtensionWitness(2), ExtensionWitness(4), ExtensionWitness(4, True),
             ExtensionWitness(25, True), ExtensionWitness(3))
SITES = tuple(itertools.product((0, 1, 2), ("A1", "SpecZ", "SpecF2")))


def _outcome(call):
    try:
        got = call()
    except (BrauerkitError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return type(got).__name__, got


def _symbols():
    pairs = [SheafExtension(a, b, witness=w)
             for a, b in itertools.product(LEAVES, repeat=2) for w in WITNESSES]
    inner = [SheafExtension(LEAVES[i], LEAVES[j], witness=w)
             for i, j, w in ((0, 8, None), (4, 5, WITNESSES[3]), (6, 6, WITNESSES[4]),
                             (8, 0, WITNESSES[2]), (11, 1, None))]
    nested = [SheafExtension(x, y, witness=w)
              for e in inner for leaf in LEAVES[::3] + LEAVES[4:5]
              for x, y in ((e, leaf), (leaf, e)) for w in WITNESSES[:4]]
    sums = [DirectSum((e, leaf)) for e in inner for leaf in LEAVES[::2]]
    return pairs + nested + sums + [SheafExtension(s, LEAVES[0], witness=None) for s in sums]


@pytest.fixture
def shared_r5(monkeypatch):
    monkeypatch.setattr(sheaftab, "_kstar_vshriek_cohomology",
                        functools.cache(sheaftab._kstar_vshriek_cohomology))


def test_cohomology_and_order_match_the_two_pass_oracle(shared_r5):
    kinds = set()
    for f in _symbols():
        for s, base in SITES:
            value = _outcome(lambda: sheaftab.cohomology(f, s, base).value)
            order = _outcome(lambda: sheaftab.cohomology_order(f, s, base))
            assert value == _outcome(lambda: sheaftab_oracle.cohomology(f, s, base)), (f, s, base)
            assert order == _outcome(lambda: sheaftab_oracle.cohomology_order(f, s, base)), \
                (f, s, base)
            if isinstance(value[1], Unknown):
                kinds.add((value[1].reason, order[0]))
    # the cases reach every R6 answer, and an ambiguous stalk extension both
    # with and without a decided order
    assert {("witness does not pin down the stalk extension", "int"),
            ("witness does not pin down the stalk extension", NoFact.__name__),
            ("witness does not pin down the extension", "int"),
            ("short exact but no witness to resolve the extension", "int"),
            ("short exact with an infinite term", NoFact.__name__),
            ("long exact sequence does not collapse", NoFact.__name__),
            ("connecting map into the sub-term undecided", NoFact.__name__),
            ("connecting map out of the quotient-term undecided", NoFact.__name__)} <= kinds


def test_order_raises_no_fact_where_the_oracle_evaluated_a_term_the_value_skipped():
    # H^1(A1; ext(Z/2; ext(Z/2; Z/25))) is Unknown: H^1(Z/2) = 0 and the
    # connecting map out of H^1 of the quotient is undecided.  The oracle's
    # second pass then evaluates H^0 of the quotient, whose witness 4 does
    # not divide 50; the one pass never evaluates that term.
    inner = SheafExtension(Constant(C(2)), Constant(C(25)), witness=ExtensionWitness(4))
    f = SheafExtension(Constant(C(2)), inner, witness=None)
    value = sheaftab.cohomology(f, 1, "A1").value
    assert value == sheaftab_oracle.cohomology(f, 1, "A1")
    assert value.reason == "connecting map out of the quotient-term undecided"
    assert _outcome(lambda: sheaftab_oracle.cohomology_order(f, 1, "A1")) == (
        "NoExtension", "witness order 4 does not divide 50")
    with pytest.raises(NoFact, match="is not decided"):
        sheaftab.cohomology_order(f, 1, "A1")
