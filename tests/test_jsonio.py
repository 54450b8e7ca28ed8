"""Round trips and rejection behavior of the JSON encodings."""

import json
from fractions import Fraction
from random import Random

import pytest

from levelring.jsonio import (
    FormatError,
    chords_from_json,
    chords_to_json,
    family_from_json,
    family_to_json,
    measure_from_json,
    measure_to_json,
    rat_from_str,
    rat_to_str,
    svalue_from_json,
    svalue_to_json,
    track_from_json,
    track_to_json,
    tree_from_json,
    tree_to_json,
    vector_from_json,
    vector_to_json,
)
from levelring.tracks import TrainTrack
from levelring.values import INF, XRat, ZERO, pair
from levelring.vectors import monomial

from helpers import (
    random_chords,
    random_measure,
    random_track_family,
    random_tree,
)


def rewire(doc):
    """Force a pass through the serializer, as a file would."""
    return json.loads(json.dumps(doc))


def test_rational_strings():
    assert rat_to_str(XRat("3/4")) == "3/4"
    assert rat_to_str(XRat(7)) == "7"
    assert rat_to_str(INF) == "inf"
    assert rat_from_str("3/4") == XRat("3/4")
    assert rat_from_str("006/08").as_fraction == Fraction(3, 4)
    assert rat_from_str("0/5") == XRat(0) and rat_from_str("12") == XRat(12)
    assert rat_from_str("inf").is_infinite
    with pytest.raises(FormatError):
        rat_from_str("-1/2")
    with pytest.raises(FormatError):
        rat_from_str("0.5")
    with pytest.raises(FormatError):
        rat_from_str("1/0")
    with pytest.raises(FormatError):
        rat_from_str(7)  # numbers travel as strings


def test_svalue_encoding():
    assert svalue_to_json(ZERO) is None
    assert svalue_to_json(pair(3, "7/2")) == {"level": 3, "real": "7/2"}
    assert svalue_from_json(None) == ZERO
    assert svalue_from_json({"level": 2, "real": "inf"}) == pair(2, INF)
    for doc in [
        {"level": 0},
        {"level": "0", "real": "1"},
        {"level": True, "real": "1"},
        {"level": -1, "real": "1"},
        {"level": 0, "real": "0"},
        {"level": 0, "real": "1", "extra": 1},
        "not an object",
    ]:
        with pytest.raises(FormatError):
            svalue_from_json(doc)


def test_vector_and_family_round_trip():
    vec = (pair(0, 1), ZERO, pair(1, INF))
    assert vector_from_json(rewire(vector_to_json(vec))) == vec
    fam = (monomial(0, "3/4", 2), None, monomial(1, 5, -1))
    assert family_from_json(rewire(family_to_json(fam))) == fam
    with pytest.raises(FormatError):
        family_from_json([{"level": 0, "coeff": "inf", "degree": 1}])
    with pytest.raises(FormatError):
        vector_from_json({"not": "a list"})


def test_track_round_trip():
    spiral = TrainTrack(
        ["x", "y", "z", "w"], [(["x", "y"], ["w"]), (["w"], ["y", "z"])]
    )
    doc = rewire(track_to_json(spiral))
    assert doc["free_ends"] == {"x": 1, "z": 1}
    assert track_from_json(doc) == spiral
    # free_ends may be omitted and is then inferred
    del doc["free_ends"]
    assert track_from_json(doc) == spiral
    with pytest.raises(FormatError):
        track_from_json(
            {"segments": ["x"], "switches": [{"a": ["x"], "b": ["x", "x"]}]}
        )


def test_random_round_trips():
    rng = Random(19)
    for _ in range(40):
        track, _ = random_track_family(rng)
        assert track_from_json(rewire(track_to_json(track))) == track
        mu = random_measure(rng)
        assert measure_from_json(rewire(measure_to_json(mu))) == mu
        tree = random_tree(rng)
        assert tree_from_json(rewire(tree_to_json(tree))) == tree
        fam = random_chords(rng)
        assert chords_from_json(rewire(chords_to_json(fam))) == fam


def test_measure_rejections():
    base = {
        "domain": {"intervals": [{"id": "I", "length": "1"}]},
        "components": [],
    }
    assert measure_from_json(rewire(base)).components == ()
    for components in [
        [{"kind": "blob"}],
        [{"kind": "atom", "interval": "I", "position": "2", "level": 0, "mass": "1"}],
        [{"kind": "atom", "interval": "J", "position": "0", "level": 0, "mass": "1"}],
        [{"kind": "density", "interval": "I", "lo": "1/2", "hi": "1/2", "level": 0, "rate": "1"}],
        [{"kind": "atom", "interval": "I", "position": "0", "level": -1, "mass": "1"}],
    ]:
        with pytest.raises(FormatError):
            measure_from_json({**base, "components": components})
    with pytest.raises(FormatError):
        measure_from_json({**base, "height_bound": "16"})


def test_tree_and_chords_rejections():
    with pytest.raises(FormatError):
        tree_from_json({"nodes": ["a", "b"], "edges": []})
    with pytest.raises(FormatError):
        tree_from_json(
            {"nodes": ["a", "b"], "edges": [{"a": "a", "b": "b", "len": None}]}
        )
    with pytest.raises(FormatError):
        chords_from_json(
            {
                "marks": 4,
                "chords": [
                    {"ends": [1, 3], "weight": {"level": 0, "real": "1"}},
                    {"ends": [2, 4], "weight": {"level": 0, "real": "1"}},
                ],
            }
        )
    with pytest.raises(FormatError):
        chords_from_json({"marks": 2, "chords": [{"ends": [1], "weight": None}]})
