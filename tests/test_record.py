"""The value semantics `brauerkit.record` gives every value and report type,
and the import cost it exists to avoid."""

import os
import subprocess
import sys
from pathlib import Path
from typing import Tuple

import pytest

from brauerkit.abelian import FgAbGroup, GroupHom
from brauerkit.numbrauer import DivisibleGroupDescriptor
from brauerkit.record import record, replace
from brauerkit.sheaftab import KStarVShriek, R1jGm
from brauerkit.ssengine import Entry

SRC = Path(__file__).resolve().parents[1] / "src"


@record
class Interval:
    lo: int
    hi: int
    tag: str = ""
    ends: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")
        object.__setattr__(self, "ends", (self.lo, self.hi))


def test_fields_in_order_with_defaults_and_post_init():
    iv = Interval(1, 3)
    assert vars(iv) == {"lo": 1, "hi": 3, "tag": "", "ends": (1, 3)}
    assert list(vars(iv)) == ["lo", "hi", "tag", "ends"]
    assert Interval(hi=3, lo=1, tag="t") == Interval(1, 3, "t")
    assert list(vars(Entry(FgAbGroup.cyclic(2)))) == ["value", "label", "index", "assumed"]
    assert FgAbGroup() == FgAbGroup(0, ())
    assert DivisibleGroupDescriptor().finite_part.is_zero()


def test_assigning_or_deleting_a_field_raises():
    g = FgAbGroup.cyclic(2)
    with pytest.raises(AttributeError):
        g.free_rank = 1
    with pytest.raises(AttributeError):
        del g.invariant_factors
    with pytest.raises(AttributeError):
        g.extra = 1
    assert vars(g) == {"free_rank": 0, "invariant_factors": (2,)}


def test_equality_needs_the_same_class():
    assert KStarVShriek() == KStarVShriek()
    assert KStarVShriek() != R1jGm() and R1jGm() != KStarVShriek()
    assert FgAbGroup(0, (2,)) == FgAbGroup.cyclic(2) != FgAbGroup.cyclic(4)
    assert FgAbGroup.cyclic(2) != (0, (2,))
    g = FgAbGroup.cyclic(2)
    assert GroupHom(g, g, ((1,),)) == GroupHom(g, g, [[1]])


def test_hash_is_the_hash_of_the_field_tuple():
    g = FgAbGroup(1, [2, 4])
    assert hash(g) == hash((g.free_rank, g.invariant_factors)) == hash((1, (2, 4)))
    assert hash(KStarVShriek()) == hash(())
    assert len({FgAbGroup.cyclic(2), FgAbGroup(0, (2,)), FgAbGroup.free(1)}) == 2


def test_repr_names_every_field():
    assert repr(FgAbGroup(1, (2,))) == "FgAbGroup(free_rank=1, invariant_factors=(2,))"
    assert repr(Interval(1, 2)) == "Interval(lo=1, hi=2, tag='', ends=(1, 2))"
    assert repr(R1jGm()) == "R1jGm()"


def test_replace_changes_fields_and_validates_again():
    e = Entry(FgAbGroup.cyclic(2), "a", 2)
    f = replace(e, assumed=("d3",))
    assert (f.value, f.label, f.index, f.assumed) == (e.value, "a", 2, ("d3",))
    assert replace(Interval(1, 3), hi=5).ends == (1, 5)
    with pytest.raises(ValueError):
        replace(Interval(1, 3), lo=4)
    with pytest.raises(ValueError):
        replace(FgAbGroup.cyclic(2), invariant_factors=(2, 3))
    with pytest.raises(TypeError):
        replace(e, colour="red")


def test_missing_unknown_or_repeated_arguments_raise_type_error():
    g = FgAbGroup.cyclic(2)
    for make in (lambda: GroupHom(g, g), lambda: Interval(), lambda: Interval(1),
                 lambda: Interval(hi=2, tag="t"), lambda: Entry()):
        with pytest.raises(TypeError, match="missing"):
            make()
    with pytest.raises(TypeError, match="unexpected"):
        FgAbGroup(rank=1)
    with pytest.raises(TypeError, match="unexpected"):
        Interval(1, 2, colour="red")
    with pytest.raises(TypeError, match="multiple"):
        FgAbGroup(0, free_rank=1)
    with pytest.raises(TypeError, match="takes 2 arguments"):
        FgAbGroup(0, (), 3)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, brauerkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
