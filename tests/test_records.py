"""The engine's records keep the equality, hash and repr that they had as
dataclasses.

The named-tuple records hash as the tuple of their fields; the slotted
classes (``ParabolicIndex``, ``QbgEdge``, ``QbgPath``,
``ReflectionOrdering``) hash as the tuple of their compared fields, equal
only records of their own class and print only those fields.
``CaseResult`` had no hash as a dataclass and now hashes as its fields;
``SuiteResult`` holds a list and still has none.
"""

import pytest

from qbgraph.affine import AffineElement, AffineRoot, Diamond
from qbgraph.level_zero import LevelZeroWeight, PosetCover
from qbgraph.qbg import BRUHAT, QUANTUM, QbgEdge, QbgPath, ReflectionOrdering
from qbgraph.root_system import build_root_system
from qbgraph.tilted import LeftStep
from qbgraph.verify import CaseResult, SuiteResult
from qbgraph.weyl import Trichotomy, build_weyl_group

E1 = QbgEdge(0, 1, (1, 0), BRUHAT, (0, 0))
E2 = QbgEdge(1, 0, (1, 1), QUANTUM, (1, 1))
E1_TEXT = "QbgEdge(source=0, target=1, label=(1, 0), kind='bruhat', weight=(0, 0))"
E2_TEXT = "QbgEdge(source=1, target=0, label=(1, 1), kind='quantum', weight=(1, 1))"

W = build_weyl_group("A", 2)
J = build_root_system("A", 2).parabolic((1,))

#: per record: a maker of one instance, the tuple of the fields that its
#: dataclass compared and hashed, and its dataclass repr
RECORDS = {
    "AffineRoot": (lambda: AffineRoot((1, -1), 2), ((1, -1), 2),
                   "AffineRoot(alpha=(1, -1), k=2)"),
    "AffineElement": (lambda: AffineElement(3, (0, -2)), (3, (0, -2)),
                      "AffineElement(w=3, mu=(0, -2))"),
    "Diamond": (lambda: Diamond("simple-bruhat", E1, E2, E2, E1, 0, 1),
                ("simple-bruhat", E1, E2, E2, E1, 0, 1),
                f"Diamond(case='simple-bruhat', bottom_left={E1_TEXT}, bottom_right={E2_TEXT}, "
                f"top_left={E2_TEXT}, top_right={E1_TEXT}, z=0, z2=1)"),
    "LevelZeroWeight": (lambda: LevelZeroWeight(2, -1), (2, -1), "LevelZeroWeight(w=2, n=-1)"),
    "PosetCover": (lambda: PosetCover(LevelZeroWeight(0, 0), LevelZeroWeight(1, 0),
                                      AffineRoot((1, 0), 0), BRUHAT),
                   (LevelZeroWeight(0, 0), LevelZeroWeight(1, 0), AffineRoot((1, 0), 0), BRUHAT),
                   "PosetCover(lower=LevelZeroWeight(w=0, n=0), upper=LevelZeroWeight(w=1, n=0), "
                   "label=AffineRoot(alpha=(1, 0), k=0), kind='bruhat')"),
    "LeftStep": (lambda: LeftStep(Trichotomy.DOWN, E2, 1), (Trichotomy.DOWN, E2, 1),
                 f"LeftStep(classification=<Trichotomy.DOWN: 'down'>, edge={E2_TEXT}, twist=1)"),
    "WeylElement": (lambda: W.element(3), (W, 3), f"W[{W.describe(3)}]"),
    "CaseResult": (lambda: CaseResult("A2", False, "why"), ("A2", False, "why"),
                   "CaseResult(name='A2', passed=False, detail='why')"),
    "ParabolicIndex": (lambda: build_root_system("A", 2).parabolic((1,)),
                       ((1,), ((1, 0),), (1, 0), ((1,),)),
                       "ParabolicIndex(nodes=(1,), phi_plus=((1, 0),), two_rho_J=(1, 0), "
                       "components=((1,),))"),
    "QbgEdge": (lambda: QbgEdge(0, 1, (1, 0), BRUHAT, (0, 0)), (0, 1, (1, 0), BRUHAT, (0, 0)),
                E1_TEXT),
    "QbgPath": (lambda: QbgPath(0, (E1, E2)), (0, (E1, E2)),
                f"QbgPath(start=0, edges=({E1_TEXT}, {E2_TEXT}))"),
    "ReflectionOrdering": (lambda: ReflectionOrdering(((1, 0), (1, 1), (0, 1))),
                           (((1, 0), (1, 1), (0, 1)),),
                           "ReflectionOrdering(sequence=((1, 0), (1, 1), (0, 1)))"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_compares_hashes_and_prints_as_its_dataclass_did(name):
    make, fields, text = RECORDS[name]
    rec, twin = make(), make()
    assert type(rec).__name__ == name
    assert rec == twin and not rec != twin
    assert hash(rec) == hash(twin) == hash(fields)
    assert repr(rec) == text


def test_the_suite_result_compares_and_prints_as_its_dataclass_did():
    # its case list is mutable, so like the dataclass it has no hash
    cases = [CaseResult("A2", True)]
    res = SuiteResult("demo", "a claim", cases)
    assert res == SuiteResult("demo", "a claim", [CaseResult("A2", True, "")])
    assert res != SuiteResult("demo", "a claim", [])
    assert res.passed and res.cases is cases
    assert repr(res) == ("SuiteResult(suite='demo', claim='a claim', "
                         "cases=[CaseResult(name='A2', passed=True, detail='')])")
    with pytest.raises(TypeError):
        hash(res)


@pytest.mark.parametrize("name", ["ParabolicIndex", "QbgEdge", "QbgPath", "ReflectionOrdering"])
def test_a_slotted_record_equals_only_its_own_class_on_its_compared_fields(name):
    make, fields, _ = RECORDS[name]
    rec = make()
    assert rec != fields and fields != rec
    assert rec != object()
    if name == "ParabolicIndex":
        # quantum_shift, in_phi_J, phi_plus_pos and lambda_J are not compared
        other = type(rec)(*fields, {}, (), (), ())
        assert other == rec and hash(other) == hash(rec)
