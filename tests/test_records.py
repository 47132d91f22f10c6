"""Tests for the record contract of the package's value types.

Every parameter, variant, subordinator spec, table, path, field and report
class is an immutable value record: positional or keyword construction
through its checks, an exact ``repr``, ``==`` within one class only, equal
hashes for equal records, no assignment or deletion, a fresh ``meta`` per
``PmfTable``, and ``pickle`` and ``copy.deepcopy`` round trips.
"""

import copy
import json
import pickle

import numpy as np
import pytest

from fracppk import (
    BoxRegion,
    ClockVector,
    DomainError,
    Gamma,
    GofReport,
    InverseGaussian,
    MarkedEventPath,
    MarkedPointField,
    MartingaleReport,
    MixedStable,
    MixtureTemperedStable,
    OrderParams,
    PmfTable,
    RngStream,
    SpaceFractional,
    Stable,
    TemperedStable,
    TemperedTimeSpace,
    TimeFractional,
)

# records of hashable fields: (factory, exact repr)
HASHABLE = [
    (lambda: OrderParams(3, 1.5), "OrderParams(k=3, lam=1.5)"),
    (lambda: BoxRegion((0.0, 0.0), (1.0, 2.0)), "BoxRegion(lo=(0.0, 0.0), hi=(1.0, 2.0))"),
    (lambda: TimeFractional(0.7), "TimeFractional(beta=0.7)"),
    (lambda: SpaceFractional(0.6), "SpaceFractional(alpha=0.6)"),
    (lambda: TemperedTimeSpace(0.7, 0.6, 0.5, 0.0), "TemperedTimeSpace(alpha=0.7, beta=0.6, mu=0.5, nu=0.0)"),
    (lambda: RngStream(5), "RngStream(seed=5, stream=0)"),
    (lambda: RngStream(5, 2), "RngStream(seed=5, stream=2)"),
    (lambda: Stable(0.7), "Stable(alpha=0.7)"),
    (lambda: MixedStable((0.5, 0.5), (0.6, 0.9)), "MixedStable(weights=(0.5, 0.5), alphas=(0.6, 0.9))"),
    (lambda: TemperedStable(0.7, 1.0), "TemperedStable(alpha=0.7, mu=1.0)"),
    (
        lambda: MixtureTemperedStable((1.0,), (0.7,), (1.0,)),
        "MixtureTemperedStable(weights=(1.0,), alphas=(0.7,), mus=(1.0,))",
    ),
    (lambda: Gamma(2.0, 3.0), "Gamma(p=2.0, a=3.0)"),
    (lambda: InverseGaussian(1.0, 2.0), "InverseGaussian(delta=1.0, gamma=2.0)"),
    (
        lambda: GofReport(100, 0.05, 3.5, 4, 0.5, 5),
        "GofReport(n_samples=100, tv=0.05, chi2=3.5, df=4, p_value=0.5, bins=5)",
    ),
]

# records that hold arrays or a dict: (factory, exact repr)
UNHASHABLE = [
    (
        lambda: MarkedPointField([[0.25, 0.5]], [2], BoxRegion((0.0, 0.0), (1.0, 1.0))),
        "MarkedPointField(points=array([[0.25, 0.5 ]]), marks=array([2]), "
        "window=BoxRegion(lo=(0.0, 0.0), hi=(1.0, 1.0)))",
    ),
    (
        lambda: ClockVector([0.5, 1.0], [[0.25, 0.75]]),
        "ClockVector(volumes=array([0.5, 1. ]), clocks=array([[0.25, 0.75]]))",
    ),
    (lambda: PmfTable([0.75, 0.25], 0.0), "PmfTable(probs=array([0.75, 0.25]), truncation_mass=0.0, meta={})"),
    (
        lambda: PmfTable([1.0], 0.0, {"variant": "ppok"}),
        "PmfTable(probs=array([1.]), truncation_mass=0.0, meta={'variant': 'ppok'})",
    ),
    (lambda: MarkedEventPath([0.5], [1], 1.0), "MarkedEventPath(times=array([0.5]), marks=array([1]), horizon=1.0)"),
    (
        lambda: MartingaleReport("stable", 200, np.array([0.5, 1.0]), np.array([0.1, -0.2]), 3.0, True),
        "MartingaleReport(label='stable', n_paths=200, times=array([0.5, 1. ]), "
        "z_scores=array([ 0.1, -0.2]), threshold=3.0, passed=True)",
    ),
]

RECORDS = HASHABLE + UNHASHABLE


def _ids(cases):
    return [want.split("(")[0] for _, want in cases]


@pytest.mark.parametrize("make, want", RECORDS, ids=_ids(RECORDS))
def test_repr_is_exact(make, want):
    assert repr(make()) == want


@pytest.mark.parametrize("make, want", HASHABLE, ids=_ids(HASHABLE))
def test_equal_records_have_equal_hashes(make, want):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("make, want", UNHASHABLE, ids=_ids(UNHASHABLE))
def test_array_or_dict_records_are_unhashable(make, want):
    with pytest.raises(TypeError):
        hash(make())


def test_equality_is_within_one_class():
    # the same field values in another class are a different record
    assert TimeFractional(0.7) != SpaceFractional(0.7)
    assert SpaceFractional(0.7) != Stable(0.7)
    assert Gamma(1.0, 2.0) != InverseGaussian(1.0, 2.0)
    assert OrderParams(3, 1.5) != (3, 1.5)
    assert OrderParams(3, 1.5) != OrderParams(3, 2.5)
    assert RngStream(5) != RngStream(5, 1)
    assert TemperedTimeSpace(0.7, 0.6, 0.5, 0.0) != TemperedTimeSpace(0.7, 0.6, 0.0, 0.5)
    path = MarkedEventPath([0.5], [1], 1.0)
    assert path == path and path != MarkedEventPath([0.5], [1], 2.0)


@pytest.mark.parametrize("make, want", RECORDS, ids=_ids(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(make, want):
    record = make()
    name = want.split("(")[1].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1.0
    assert repr(record) == want


@pytest.mark.parametrize("make, want", RECORDS, ids=_ids(RECORDS))
def test_pickle_and_deepcopy_round_trip(make, want):
    record = make()
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record) and twin is not record
        assert repr(twin) == want
        assert vars(twin).keys() == vars(record).keys()
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(vars(twin))), 1.0)


def test_vars_holds_the_fields_in_order():
    assert vars(OrderParams(3, 1.5)) == {"k": 3, "lam": 1.5}
    assert list(vars(TemperedTimeSpace(nu=0.0, mu=0.5, beta=0.6, alpha=0.7))) == ["alpha", "beta", "mu", "nu"]


def test_keyword_construction():
    assert OrderParams(k=3, lam=1.5) == OrderParams(3, 1.5)
    assert OrderParams(lam=1.5, k=3) == OrderParams(3, lam=1.5)
    assert RngStream(seed=5) == RngStream(5, 0) == RngStream(5, stream=0)
    assert TemperedTimeSpace(0.7, 0.6, nu=0.0, mu=0.5) == TemperedTimeSpace(0.7, 0.6, 0.5, 0.0)
    assert MixedStable(alphas=(0.6, 0.9), weights=[0.5, 0.5]).weights == (0.5, 0.5)
    table = PmfTable(probs=[1.0], truncation_mass=0.0, meta={"k": 3})
    assert table.meta == {"k": 3}


@pytest.mark.parametrize(
    "build",
    [
        lambda: OrderParams(3),
        lambda: OrderParams(lam=1.5),
        lambda: OrderParams(3, 1.5, 2.0),
        lambda: OrderParams(3, 1.5, rate=2.0),
        lambda: Stable(0.5, alpha=0.6),
        lambda: RngStream(),
        lambda: RngStream(5, 0, 1),
        lambda: PmfTable([1.0]),
        lambda: GofReport(100, 0.05, 3.5, 4, 0.5),
    ],
    ids=["missing", "missing-kw", "extra", "unknown-kw", "repeated", "none", "too-many", "table", "report"],
)
def test_missing_or_unknown_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_checks_still_run_on_keywords():
    with pytest.raises(DomainError):
        OrderParams(k=0, lam=1.0)
    with pytest.raises(DomainError):
        RngStream(seed=5, stream=-1)
    assert BoxRegion(lo=[0, 0], hi=[1, 2]).lo == (0.0, 0.0)


def test_pmf_table_meta_is_fresh_per_instance():
    a, b = PmfTable([1.0], 0.0), PmfTable([1.0], 0.0)
    assert a.meta == {} and a.meta is not b.meta
    a.meta["variant"] = "ppok"
    assert b.meta == {} and PmfTable([1.0], 0.0).meta == {}


def test_report_payloads_are_unchanged():
    gof = GofReport(100, np.float64(0.05), 3.5, 4, np.float64(0.5), 5)
    assert json.dumps(gof.json_payload()) == (
        '{"n_samples": 100, "tv": 0.05, "chi2": 3.5, "df": 4, "p_value": 0.5, "bins": 5}'
    )
    mart = MartingaleReport("stable", 200, np.array([0.5, 1.0]), np.array([0.1, -0.2]), 3.0, True)
    assert json.dumps(mart.json_payload()) == (
        '{"label": "stable", "n_paths": 200, "times": [0.5, 1.0], "z_scores": [0.1, -0.2], '
        '"threshold": 3.0, "passed": true}'
    )
    # the payload is a copy: changing it leaves the report as it was
    payload = mart.json_payload()
    payload["times"].append(2.0)
    assert mart.times.tolist() == [0.5, 1.0]



class _Seeded(RngStream):
    """A subclass with no fields of its own keeps its base's fields and defaults."""


def test_subclass_keeps_the_fields():
    record = _Seeded(5)
    assert repr(record) == "_Seeded(seed=5, stream=0)"
    assert record == _Seeded(seed=5, stream=0) and hash(record) == hash(RngStream(5))
    assert record != RngStream(5)
