"""System files: parsing, rendering, deterministic generation."""

import json

import pytest

from mustab import (
    GeneratorSpec,
    SystemFile,
    generate_system,
    load_system,
    parse_system,
    render_system,
    save_system,
    validate_space,
)
from mustab.errors import MissingMeasure, NonSymmetric, RangeTooSmall, UsageError
from mustab.systems import GENERATOR_ALGORITHM


def test_round_trip_generated_systems():
    for n in range(1, 7):
        sysf = generate_system(GeneratorSpec(n=n, seed=40 + n))
        text = render_system(sysf)
        back = parse_system(text)
        assert back == sysf
        assert render_system(back) == text


def test_render_is_byte_stable():
    sysf = generate_system(GeneratorSpec(n=4, seed=5))
    assert render_system(sysf) == render_system(sysf)
    assert render_system(sysf).endswith("\n")


def test_named_accessors():
    sysf = generate_system(GeneratorSpec(n=3, seed=5))
    assert sysf.map("f").table == sysf.maps["f"].table
    assert sysf.measure("dirac") == sysf.measures["dirac"]
    with pytest.raises(UsageError):
        sysf.map("g")
    with pytest.raises(MissingMeasure):
        sysf.measure("nu")


def good_payload():
    return {
        "points": ["a", "b"],
        "metric": [["0", "1"], ["1", "0"]],
        "maps": {"f": [1, 0]},
        "measures": {"mu": ["1/2", "1/2"]},
    }


def test_parse_accepts_ints_and_strings():
    payload = good_payload()
    payload["metric"] = [[0, 1], [1, 0]]
    sysf = parse_system(json.dumps(payload))
    assert sysf.space.dist[0][1] == 1
    assert sysf.measures["mu"].weights[0].denominator == 2


def test_parse_rejects_floats():
    payload = good_payload()
    payload["metric"] = [[0, 0.5], [0.5, 0]]
    with pytest.raises(UsageError, match="float"):
        parse_system(json.dumps(payload))
    payload = good_payload()
    payload["measures"] = {"mu": [0.5, 0.5]}
    with pytest.raises(UsageError, match="float"):
        parse_system(json.dumps(payload))


def test_parse_rejects_structural_junk():
    with pytest.raises(UsageError, match="not valid JSON"):
        parse_system("{nope")
    with pytest.raises(UsageError, match="top level"):
        parse_system("[1, 2]")
    for key in ("points", "metric", "maps", "measures"):
        payload = good_payload()
        del payload[key]
        with pytest.raises(UsageError, match=key):
            parse_system(json.dumps(payload))


def test_parse_rejects_bad_components():
    payload = good_payload()
    payload["points"] = ["a", 2]
    with pytest.raises(UsageError):
        parse_system(json.dumps(payload))

    payload = good_payload()
    payload["metric"] = [["0", "1", "2"], ["1", "0", "1"]]
    with pytest.raises(UsageError, match="bad metric"):
        parse_system(json.dumps(payload))

    payload = good_payload()
    payload["metric"] = [["0", "1/0"], ["1/0", "0"]]
    with pytest.raises(UsageError, match="bad metric"):
        parse_system(json.dumps(payload))

    # axiom failures keep their own typed diagnostics
    payload = good_payload()
    payload["metric"] = [["0", "2"], ["1", "0"]]
    with pytest.raises(NonSymmetric):
        parse_system(json.dumps(payload))

    payload = good_payload()
    payload["maps"] = {"f": [0, 2]}
    with pytest.raises(UsageError, match='map "f"'):
        parse_system(json.dumps(payload))

    payload = good_payload()
    payload["maps"] = {"f": [0, True]}
    with pytest.raises(UsageError, match='map "f"'):
        parse_system(json.dumps(payload))

    payload = good_payload()
    payload["measures"] = {"mu": ["1/2", "1/3"]}
    with pytest.raises(UsageError, match='measure "mu"'):
        parse_system(json.dumps(payload))

    payload = good_payload()
    payload["generator"] = "yes"
    with pytest.raises(UsageError, match="generator"):
        parse_system(json.dumps(payload))


def test_generator_metadata_passes_through():
    payload = good_payload()
    payload["generator"] = {"model": "hand", "note": 3}
    sysf = parse_system(json.dumps(payload))
    assert sysf.generator == {"model": "hand", "note": 3}
    assert json.loads(render_system(sysf))["generator"] == sysf.generator


def test_generate_deterministic_and_valid():
    spec = GeneratorSpec(n=5, seed=42)
    a = generate_system(spec)
    b = generate_system(spec)
    assert render_system(a) == render_system(b)
    assert set(a.maps) == {"f"}
    assert set(a.measures) == {"dirac", "full"}
    assert sum(a.measures["full"].weights) == 1
    assert all(w > 0 for w in a.measures["full"].weights)
    assert sorted(a.measures["dirac"].weights) == [0, 0, 0, 0, 1]
    assert a.generator["algorithm"] == GENERATOR_ALGORITHM
    assert a.generator["seed"] == 42
    # distinct seeds give distinct systems (with overwhelming probability,
    # checked here as a frozen fact for these two seeds)
    c = generate_system(GeneratorSpec(n=5, seed=43))
    assert render_system(c) != render_system(a)


def test_generate_one_point():
    sysf = generate_system(GeneratorSpec(n=1, seed=0))
    assert sysf.space.n == 1
    assert sysf.maps["f"].table == (0,)
    assert sysf.measures["dirac"].weights == (1,)
    assert sysf.measures["full"].weights == (1,)


def test_generate_bounds():
    with pytest.raises(UsageError):
        generate_system(GeneratorSpec(n=0, seed=0))
    with pytest.raises(RangeTooSmall):
        generate_system(GeneratorSpec(n=10, seed=0, coordinate_range=3))
    with pytest.raises(UsageError, match="unknown model"):
        generate_system(GeneratorSpec(n=3, seed=0, model="gaussian"))


def test_explicit_model_is_canonical():
    a = generate_system(GeneratorSpec(n=4, seed=0, model="explicit"))
    b = generate_system(GeneratorSpec(n=4, seed=999, model="explicit"))
    # seed is irrelevant for the de-randomized model
    assert a.space == b.space
    assert a.maps["f"].table == (0, 1, 2, 3)
    assert a.measures["dirac"].weights[0] == 1
    assert len(set(a.measures["full"].weights)) == 1


def test_save_and_load(tmp_path):
    sysf = generate_system(GeneratorSpec(n=4, seed=11))
    path = tmp_path / "sys.json"
    save_system(sysf, str(path))
    assert load_system(str(path)) == sysf
    with pytest.raises(UsageError, match="cannot read"):
        load_system(str(tmp_path / "missing.json"))


def test_hand_built_system_round_trip(tmp_path):
    space = validate_space(("a", "b", "c"), ((0, 2, 2), (2, 0, 2), (2, 2, 0)))
    sysf = SystemFile(space)
    text = render_system(sysf)
    back = parse_system(text)
    assert back.space == space
    assert back.maps == {} and back.measures == {}
