"""The record types: immutable named tuples, some validated on construction.

Anything sent to or from a worker process is pickled, and unpickling rebuilds
a record through its class; a round trip must give back an equal record of
the same class.
"""

import os
import pickle
from fractions import Fraction

import pytest

from ecdescent import curves, descent2, descent3, families, stats, watkins
from ecdescent.config import Config
from ecdescent.curves import ShortWeierstrass
from ecdescent.errors import DomainError
from ecdescent.families import E2Param

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "ecdescent", "data",
                    "sample_dataset.csv")


def one_of_each():
    """One record of every record type, most built by the code that returns them."""
    return [
        ShortWeierstrass(-1, 0),
        families.tate_normal(Fraction(1, 2), Fraction(1, 2)),
        curves.invariants(families.e5_curve(Fraction(1, 3))),
        descent2.HomogeneousSpace(-1, 2, 3),
        descent2.rank_upper(E2Param(0, 1), ((), ((2, 2),))),
        descent3.class_bound(-3),
        descent3.rank_upper_type1(-432, ((2, 4), (3, 3)))[1],
        E2Param(0, -1),
        stats.normal_order_experiment([1, 0, 1], [10], ())[0],
        stats.volume_constant(12),
        watkins.load_dataset(DATA)[0],
        watkins.report(E2Param(0, -1), "include-small"),
        Config(policy="exclude-23", nu2_manin=1, workers=2),
    ]


def test_every_record_type_is_covered():
    names = {type(rec).__name__ for rec in one_of_each()}
    assert names == {
        "ShortWeierstrass", "LongWeierstrass", "CurveInvariants", "HomogeneousSpace",
        "SelmerEstimate", "ClassGroup3", "Type1Bound", "E2Param", "NormalOrderSample",
        "VolumeConstant", "DatasetRecord", "WatkinsReport", "Config"}


@pytest.mark.parametrize("rec", one_of_each(), ids=lambda rec: type(rec).__name__)
def test_pickle_round_trip(rec):
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec)
    assert back == rec
    assert repr(back) == repr(rec)


def test_records_are_immutable():
    E = ShortWeierstrass(-1, 0)
    with pytest.raises(AttributeError):
        E.A = 2
    with pytest.raises(AttributeError):
        E.extra = 1  # no instance dict


@pytest.mark.parametrize("kwargs, message", [
    ({"policy": "bogus"}, "unknown policy 'bogus'"),
    ({"nu2_manin": -1}, "nu2_manin must be >= 0, got -1"),
    ({"workers": 0}, "workers must be >= 1, got 0"),
], ids=["policy", "nu2_manin", "workers"])
def test_config_validation(kwargs, message):
    with pytest.raises(DomainError) as err:
        Config(**kwargs)
    assert str(err.value) == message


def test_config_defaults_and_echo():
    cfg = Config()
    assert Config._fields == ("policy", "nu2_manin", "workers")
    assert cfg.as_dict() == {
        "policy": "include-small", "nu2_manin": 0, "solubility_real_place": True,
        "workers": 1, "depth_cap_extra": 5, "seed": 0}
    assert Config(workers=3).as_dict()["workers"] == 3
