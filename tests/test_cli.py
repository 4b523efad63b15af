"""End-to-end runs of the command-line interface.

Every test drives ``main(argv)`` directly and inspects exit code plus
captured output; nothing here shells out.
"""

import json
import time

import pytest

import mustab.shadowing
from mustab import EndoMap, GeneratorSpec, SystemFile, generate_system, save_system
from mustab.cli import main


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "sys.json"
    save_system(generate_system(GeneratorSpec(n=4, seed=9)), str(path))
    return str(path)


@pytest.fixture
def line_file(tmp_path):
    """Explicit 4-chain with an extra copy of f and a far-away map."""
    base = generate_system(GeneratorSpec(n=4, seed=0, model="explicit"))
    f = base.maps["f"]
    far = EndoMap(base.space, (1, 2, 3, 3))
    sysf = SystemFile(base.space, {"f": f, "g": f, "far": far}, base.measures, None)
    path = tmp_path / "line.json"
    save_system(sysf, str(path))
    return str(path)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mustab 0.1.0" in capsys.readouterr().out


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_validate_text(system_file, capsys):
    assert main(["validate", system_file]) == 0
    out = capsys.readouterr().out
    assert "ok: 4 points" in out
    assert "maps [f]" in out


def test_validate_json(system_file, capsys):
    assert main(["validate", system_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["points"] == 4
    assert payload["measures"] == ["dirac", "full"]


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_axiom_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "points": ["a", "b", "c"],
        "metric": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
        "maps": {},
        "measures": {},
    }))
    assert main(["validate", str(path)]) == 2
    assert "dist[0][2]" in capsys.readouterr().err


def test_validate_zero_denominator_metric(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "points": ["a", "b"],
        "metric": [["0", "1/0"], ["1/0", "0"]],
        "maps": {},
        "measures": {},
    }))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad metric" in err
    assert "Traceback" not in err


def test_gen_writes_deterministic_files(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["gen", "-n", "4", "--seed", "3", "-o", a]) == 0
    assert "wrote" in capsys.readouterr().out
    assert main(["gen", "--points", "4", "--seed", "3", "--out", b]) == 0
    capsys.readouterr()
    with open(a) as fa, open(b) as fb:
        text_a, text_b = fa.read(), fb.read()
    assert text_a == text_b
    # stdout mode emits the same bytes
    assert main(["gen", "-n", "4", "--seed", "3"]) == 0
    assert capsys.readouterr().out == text_a
    assert main(["validate", a]) == 0


def test_gen_range_error(capsys):
    assert main(["gen", "-n", "10", "--seed", "0", "--coordinate-range", "3"]) == 2
    assert "cannot hold" in capsys.readouterr().err


def test_gen_unwritable_output(tmp_path, capsys):
    for out in (tmp_path, tmp_path / "missing" / "out.json"):
        assert main(["gen", "-n", "3", "--seed", "0", "-o", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err


def test_validate_undecodable_and_deeply_nested_files(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    for path in (binary, deep):
        assert main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


def test_analyze_text(system_file, capsys):
    assert main(["analyze", system_file]) == 0
    out = capsys.readouterr().out
    assert "map f:" in out
    assert "separation matrix:" in out
    assert "measure-expansive under dirac: False" in out


def test_analyze_json(system_file, capsys):
    assert main(["analyze", system_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    entry = payload["maps"]["f"]
    assert set(entry["measure_expansive"]) == {"dirac", "full"}
    assert not any(entry["measure_expansive"].values())
    assert len(entry["separation_matrix"]) == 4


def test_analyze_single_point(tmp_path, capsys):
    path = tmp_path / "one.json"
    save_system(generate_system(GeneratorSpec(n=1, seed=0)), str(path))
    assert main(["analyze", str(path)]) == 0
    assert "1 point" in capsys.readouterr().out


def test_analyze_unknown_map(system_file, capsys):
    assert main(["analyze", system_file, "--map", "zig"]) == 2
    assert "no map named" in capsys.readouterr().err


def test_shadowing_profile_default_is_all_mode(system_file, capsys):
    # two measures in the file and none chosen: only the measure-free mode
    assert main(["shadowing-profile", system_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["measure"] is None
    assert {r["mode"] for r in payload["rows"]} == {"all"}
    assert all(r["delta"] is not None for r in payload["rows"])


def test_shadowing_profile_with_measure(system_file, capsys):
    assert main(["shadowing-profile", system_file, "--measure", "dirac", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {r["mode"] for r in payload["rows"]} == {"all", "full", "weak"}


def test_unsound_shadowing_oracle_exits_1(system_file, capsys, monkeypatch):
    # an oracle where every start fails at rank 0 rejects even the sub-grid
    # delta, which contradicts itself
    monkeypatch.setattr(mustab.shadowing, "failure_ranks",
                        lambda f, eps: (0,) * f.space.n)
    assert main(["shadowing-profile", system_file]) == 1
    err = capsys.readouterr().err
    assert "verification failed" in err
    assert "Traceback" not in err


def test_shadowing_profile_text_and_alias(system_file, capsys):
    assert main(["shadowing-profile", system_file, "--measure", "full",
                 "--mode", "mu"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["eps", "mode", "delta"]
    assert " mu" in out


def test_shadowing_profile_mode_needs_measure(system_file, capsys):
    assert main(["shadowing-profile", system_file, "--mode", "full"]) == 2
    assert "needs a measure" in capsys.readouterr().err


def test_stability_profile_point(line_file, capsys):
    assert main(["stability-profile", line_file, "--target", "point:p0",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "point"
    stars = [r["delta_star"] for r in payload["rows"]]
    assert all(s is not None for s in stars)


def test_stability_profile_mode_alias(line_file, capsys):
    assert main(["stability-profile", line_file, "--mode", "measure:dirac"]) == 0
    out = capsys.readouterr().out
    assert "stability profile (measure mode, map f)" in out


def test_stability_profile_setvalued_has_empty_rows(system_file, capsys):
    assert main(["stability-profile", system_file, "--target", "setvalued:full",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["delta_star"] is None  # tolerance 0 is impossible


def test_stability_profile_bad_targets(system_file, capsys):
    assert main(["stability-profile", system_file, "--target", "point:zz"]) == 2
    assert "no point labelled" in capsys.readouterr().err
    assert main(["stability-profile", system_file, "--target", "orbit:p0"]) == 2
    assert "unknown target kind" in capsys.readouterr().err
    assert main(["stability-profile", system_file, "--target", "plain"]) == 2
    assert "must look like" in capsys.readouterr().err
    assert main(["stability-profile", system_file, "--target", "measure:none"]) == 2
    assert "no measure named" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["stability-profile", system_file])


def test_stability_profile_budget_exceeded(line_file, capsys):
    assert main(["stability-profile", line_file, "--target", "measure:dirac",
                 "--budget", "10"]) == 3
    assert "budget exceeded" in capsys.readouterr().err



def test_large_system_exceeds_budget_at_once(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_system(generate_system(GeneratorSpec(n=24, seed=3)), str(path))
    for target in ("measure:full", "setvalued:full"):
        start = time.perf_counter()
        assert main(["stability-profile", str(path), "--target", target]) == 3
        assert time.perf_counter() - start < 2, target
        assert "budget exceeded" in capsys.readouterr().err

def test_stability_profile_sampling(line_file, capsys):
    assert main(["stability-profile", line_file, "--target", "measure:dirac",
                 "--budget", "10", "--sample", "--sample-size", "40"]) == 0
    assert "sampled" in capsys.readouterr().out


def test_budget_env_override(line_file, monkeypatch, capsys):
    monkeypatch.setenv("MUSTAB_BUDGET", "10")
    assert main(["stability-profile", line_file, "--target", "measure:dirac"]) == 3
    capsys.readouterr()
    # explicit flag wins over the environment
    assert main(["stability-profile", line_file, "--target", "measure:dirac",
                 "--budget", "100000"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("MUSTAB_BUDGET", "lots")
    assert main(["stability-profile", line_file, "--target", "measure:dirac"]) == 2
    assert "not an integer" in capsys.readouterr().err
    # a budget below 1 is bad input from either source, on both subcommands
    for argv in (["stability-profile", line_file, "--target", "measure:dirac"],
                 ["check-theorem", "7", "--trials", "1", "--max-points", "2"]):
        for bad in ("0", "-1"):
            monkeypatch.setenv("MUSTAB_BUDGET", bad)
            assert main(argv) == 2
            assert "MUSTAB_BUDGET must be positive" in capsys.readouterr().err
            monkeypatch.delenv("MUSTAB_BUDGET")
            assert main(argv + ["--budget", bad]) == 2
            assert "--budget must be positive" in capsys.readouterr().err


def test_semiconjugacy_identity_perturbation(line_file, capsys):
    assert main(["semiconjugacy", line_file, "--perturbed", "g",
                 "--measure", "dirac", "--eps", "1"]) == 0
    out = capsys.readouterr().out
    assert "check invariant_domain: pass" in out
    assert "check intertwines: pass" in out
    assert "h(p0) = p0" in out


def test_semiconjugacy_json(line_file, capsys):
    assert main(["semiconjugacy", line_file, "--g", "g",
                 "--measure", "dirac", "--eps", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["epsilon"] == "1/16"
    assert payload["delta"] == "1/2"
    assert payload["mass_defect"] == "0"
    assert payload["h"] == {f"p{i}": f"p{i}" for i in range(4)}


def test_semiconjugacy_rejects_far_map(line_file, capsys):
    assert main(["semiconjugacy", line_file, "--perturbed", "far",
                 "--measure", "dirac", "--eps", "1"]) == 2
    assert "c0_distance" in capsys.readouterr().err


def test_semiconjugacy_eps_must_be_rational(line_file):
    with pytest.raises(SystemExit) as exc:
        main(["semiconjugacy", line_file, "--perturbed", "g",
              "--measure", "dirac", "--eps", "abc"])
    assert exc.value.code == 2


def test_check_theorem_basicas(capsys):
    assert main(["check-theorem", "basicas"]) == 0
    assert "item basicas: holds" in capsys.readouterr().out
    assert main(["check-theorem", "--item", "basicas", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["item"] == "basicas"
    assert payload["counterexample"] is None


def test_check_theorem_small_run(capsys):
    assert main(["check-theorem", "5", "--trials", "2", "--max-points", "3"]) == 0
    assert "item 5: holds" in capsys.readouterr().out


def test_check_theorem_item_required(capsys):
    assert main(["check-theorem"]) == 2
    assert "pick a theorem item" in capsys.readouterr().err


def test_check_theorem_rejects_unknown_item():
    with pytest.raises(SystemExit) as exc:
        main(["check-theorem", "9"])
    assert exc.value.code == 2
