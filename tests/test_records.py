"""The result and instance records: immutable, compared, hashed, printed and
pickled by value, and (for the two a benchmark or caller may unpack or
encode) not tuples."""

import copy
import pickle

import pytest

from ftsolve import (
    AngleSet,
    CaseLabel,
    FtSolution,
    PlasticityInstance,
    SymmetricInstance,
    WeightedTetrahedron,
    angles_at,
    classify,
    embed_regular,
    quartic_coefficients,
    solve_symmetric,
)


def make_records():
    inst = SymmetricInstance(1.0, 2.5, 1.0)
    tet = inst.tetrahedron()
    sol = solve_symmetric(inst)
    return {
        "SymmetricInstance": inst,
        "WeightedTetrahedron": tet,
        "PlasticityInstance": PlasticityInstance(tet, sol.point, (1.5, 1.2, 0.8, 2.0)),
        "FtSolution": sol,
        "AngleSet": angles_at(inst.a, sol.y),
        "CaseLabel": classify(tet),
        "QuarticCoefficients": quartic_coefficients(inst),
    }


RECORDS = list(make_records())


@pytest.mark.parametrize("kind", RECORDS)
def test_every_field_is_read_only(kind):
    rec = make_records()[kind]
    before = repr(rec)
    for name in type(rec).__slots__:  # the private slots too
        getattr(rec, name)  # every slot was filled: an unset slot raises AttributeError
        with pytest.raises(AttributeError):
            setattr(rec, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.new_field = 1.0
    assert repr(rec) == before


@pytest.mark.parametrize("kind", RECORDS)
def test_equality_hash_and_pickling_go_by_value(kind):
    rec, twin = make_records()[kind], make_records()[kind]
    assert rec is not twin and rec == twin and not rec != twin
    assert hash(rec) == hash(twin) and repr(rec) == repr(twin)
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
    assert rec != object()


def test_repr_names_the_public_fields():
    assert repr(SymmetricInstance(1.0, 2.5, 1.0)) == "SymmetricInstance(a=1.0, b1=2.5, b4=1.0)"
    assert repr(AngleSet(0.5, 1.5, 2.0)) == "AngleSet(alpha_102=0.5, alpha_304=1.5, alpha_cross=2.0)"
    tet = WeightedTetrahedron(embed_regular(2.0), [1.0] * 4)
    assert repr(tet).startswith("WeightedTetrahedron(vertices=((-1.0, 0.0, ")
    assert "_pairs" not in repr(tet) and "weights=(1.0, 1.0, 1.0, 1.0))" in repr(tet)
    assert repr(CaseLabel(None, (1.0, 2.0, 3.0, 4.0))) == "CaseLabel(vertex=None, margins=(1.0, 2.0, 3.0, 4.0))"


def test_records_differ_by_any_field_and_by_type():
    base = FtSolution((0.0, 0.0, 0.5), 1.0, 0.0, 0.5)
    assert base == FtSolution(point=(0.0, 0.0, 0.5), objective=1.0, residual=0.0, y=0.5, vertex=None)
    for other in (
        FtSolution((0.0, 0.0, 0.5), 1.0, 0.0, 0.5, vertex=2),
        FtSolution((0.0, 0.0, 0.5), 1.0, 1e-16, 0.5),
        FtSolution((0.0, 0.0, 0.25), 1.0, 0.0, 0.5),
    ):
        assert base != other
    assert AngleSet(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)


def test_solution_and_angles_are_not_tuples():
    # a caller that takes any tuple apart element by element (the benchmark's
    # encoder, for one) must see these as records
    rec = make_records()
    assert not isinstance(rec["FtSolution"], tuple)
    assert not isinstance(rec["AngleSet"], tuple)
    assert rec["FtSolution"].case == "floating"
    assert rec["CaseLabel"].floating and rec["CaseLabel"].case == "floating"


def test_constructors_still_validate():
    tet = WeightedTetrahedron(embed_regular(1.0), [1.0] * 4)
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        SymmetricInstance(1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="stretch factors"):
        PlasticityInstance(tet, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="a point must have 3 entries"):
        PlasticityInstance(tet, (0.0, 0.0), (1.0, 1.0, 1.0, 1.0))
