"""Value semantics of the package's frozen records: equal fields give equal
objects with equal hashes, fields cannot be assigned, the repr names every
field, and copy and pickle rebuild an equal record."""

import copy
import pickle

import pytest

from slopedesign import (AdmissibleRegion, Design, DesignProblem,
                         ElfvingCertificate, GridSpec, OracleReport,
                         admissible_region)
from slopedesign import designs

from helpers import clear_caches

DESIGN = Design((0.5, 1.0), (0.25, 0.75))

# For each record class: two constructor argument tuples that give equal
# records, one that gives an unequal one, and the expected repr.
CASES = {
    "DesignProblem": (
        DesignProblem, (4, 1.0), (4, 1), (4, 2.0),
        "DesignProblem(n=4, a=1.0)"),
    "Design": (
        Design, ((0.5, 1.0), (0.25, 0.75)), ([0.5, 1], [0.25, 0.75]),
        ((0.5, 1.0), (0.5, 0.5)),
        "Design(points=(0.5, 1.0), weights=(0.25, 0.75))"),
    "AdmissibleRegion": (
        AdmissibleRegion, (1.0, ((-float("inf"), 0.25), (0.5, float("inf")))),
        (1.0, ((-float("inf"), 0.25), (0.5, float("inf")))),
        (2.0, ((-float("inf"), 0.25), (0.5, float("inf")))),
        "AdmissibleRegion(a=1.0, intervals=((-inf, 0.25), (0.5, inf)))"),
    "ElfvingCertificate": (
        ElfvingCertificate, ((1.0, -2.0), 3.0, 0.0, (0.0, 1e-16), 2e-16,
                             "verified"),
        ((1.0, -2.0), 3.0, 0.0, (0.0, 1e-16), 2e-16, "verified"),
        ((1.0, -2.0), 3.0, 0.0, (0.0, 1e-16), 2e-16, "failed"),
        "ElfvingCertificate(p=(1.0, -2.0), h=3.0, condition1_margin=0.0, "
        "condition2_residuals=(0.0, 1e-16), condition3_residual=2e-16, "
        "verdict='verified')"),
    "GridSpec": (GridSpec, (11,), (11,), (12,), "GridSpec(m=11)"),
    "OracleReport": (
        OracleReport, (True, 2.0, 2.0, 2.0, DESIGN, 0.0, True, 1e-9),
        (True, 2.0, 2.0, 2.0, Design([0.5, 1.0], [0.25, 0.75]), 0.0, True,
         1e-9),
        (True, 2.0, 2.0, 2.0, DESIGN, None, True, 1e-9),
        "OracleReport(covered=True, closed_form_variance=2.0, "
        "lp_variance=2.0, restricted_variance=2.0, lp_design=Design("
        "points=(0.5, 1.0), weights=(0.25, 0.75)), "
        "max_weight_discrepancy=0.0, agrees=True, margin_threshold=1e-09)"),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_equal_fields_give_equal_records_and_hashes(case):
    cls, args, same, _, _ = case
    x, y = cls(*args), cls(*same)
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert {x: 1}[y] == 1


def test_unequal_fields_give_unequal_records(case):
    cls, args, _, other, _ = case
    x, z = cls(*args), cls(*other)
    assert x != z and not x == z
    # A record equals no other type, not even the tuple of its fields.
    assert x != tuple(getattr(x, f) for f in cls._fields)


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, args, _, _, _ = case
    x = cls(*args)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.unknown = 1
    assert x == cls(*args)


def test_repr_names_every_field(case):
    cls, args, _, _, text = case
    assert repr(cls(*args)) == text


def test_copy_and_pickle_rebuild_an_equal_record(case):
    cls, args, _, _, _ = case
    x = cls(*args)
    for y in (copy.copy(x), copy.deepcopy(x),
              pickle.loads(pickle.dumps(x, protocol=pickle.HIGHEST_PROTOCOL)),
              pickle.loads(pickle.dumps(x, protocol=0))):
        assert type(y) is cls
        assert y == x and hash(y) == hash(x)
        assert repr(y) == repr(x)


def test_keyword_construction_of_the_validated_records():
    assert DesignProblem(n=4, a=1.0) == DesignProblem(4, 1.0)
    assert Design(points=(1.0,), weights=(1.0,)) == Design((1.0,), (1.0,))
    assert GridSpec() == GridSpec(m=2001) == GridSpec(2001)


def test_region_roots_are_solved_lazily_and_cached(monkeypatch):
    calls = []
    roots_of = designs._UnitState._roots_of

    def counted(state, i):
        calls.append(i)
        return roots_of(state, i)

    monkeypatch.setattr(designs._UnitState, "_roots_of", counted)
    clear_caches()
    region = admissible_region(DesignProblem(5, 3.0))
    assert sorted(calls) == [0, 4]  # only the two sets of the intervals
    roots = region.boundary_roots
    assert sorted(calls) == [0, 1, 2, 3, 4]
    assert region.boundary_roots == roots
    # Another a of the degree scales the same unit roots.
    assert len(admissible_region(DesignProblem(5, 7.0)).boundary_roots) == 5
    assert len(calls) == 5
    # The roots take no part in equality, hash, repr or pickling.
    fresh = AdmissibleRegion(region.a, region.intervals)
    assert fresh == region and hash(fresh) == hash(region)
    assert repr(fresh) == repr(region)
    assert pickle.loads(pickle.dumps(region)).boundary_roots == roots
