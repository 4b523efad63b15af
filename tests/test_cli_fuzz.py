"""Fuzzing the CLI's exit-code contract.

Garbage or mutated system files and mutated argument lists must end in a
clean exit: 2 for bad input, 3 for an exceeded budget, 0 or 1 only when the
input is in fact valid, and never a traceback.  ``main`` runs in-process, so
an exception escaping it fails the test with that traceback.  The examples
are derandomized so the suite stays reproducible.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mustab import GeneratorSpec, generate_system, render_system
from mustab.cli import main

FUZZ = settings(
    max_examples=60,
    deadline=5000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

BASE_TEXT = render_system(generate_system(GeneratorSpec(n=3, seed=4)))
BASE = json.loads(BASE_TEXT)


def _paths(obj, prefix=()):
    """Every key/index path into a JSON value, parents before children."""
    if prefix:
        yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


PATHS = list(_paths(BASE))

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["1/0", "-1", "0", "1/2", "3", "2/0", "1e400", "nan", "inf",
                     "p0", "p1", "f", " 1 ", "1/-2", "0.5", "[]", "{}"]),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated_system_texts(draw):
    """The base system with one to three values replaced, deleted or extended."""
    obj = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(PATHS))
        parent = obj
        try:
            for key in path[:-1]:
                parent = parent[key]
            target = parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this path
        action = draw(st.sampled_from(("replace", "delete", "append")))
        if action == "delete":
            del parent[path[-1]]
        elif action == "append" and isinstance(target, list):
            target.append(draw(JSON_VALUES))
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return json.dumps(obj).encode()


GARBAGE_FILES = st.one_of(
    mutated_system_texts(),
    st.binary(max_size=64),
    st.text(max_size=64).map(str.encode),
    st.integers(0, len(BASE_TEXT) - 1).map(lambda k: BASE_TEXT[:k].encode()),
    st.sampled_from((1, 50, 5000)).map(lambda depth: ("[" * depth + "]" * depth).encode()),
)


def run(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:  # argparse rejects the arguments
            code = ex.code
    return code, err.getvalue()


def commands(path: str) -> list[list[str]]:
    return [
        ["analyze", path, "--json"],
        ["shadowing-profile", path, "--measure", "full", "--json"],
        ["stability-profile", path, "--target", "point:p0", "--json"],
        ["stability-profile", path, "--target", "measure:full", "--budget", "30",
         "--sample", "--sample-size", "4"],
        ["semiconjugacy", path, "--g", "f", "--measure", "full", "--eps", "1"],
    ]


@FUZZ
@given(data=GARBAGE_FILES)
def test_garbage_system_files_exit_cleanly(data, tmp_path):
    path = tmp_path / "sys.json"
    path.write_bytes(data)
    code, err = run(["validate", str(path)])
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ")
    for argv in commands(str(path)):
        c, e = run(argv)
        assert "Traceback" not in e
        if code == 2:
            assert c == 2, (argv, c, e)  # every command loads the file first
        else:
            assert c in (0, 1, 2, 3), (argv, c, e)


# Command lines with typed slots.  A slot keeps its valid value (listed
# first) or takes one from its pool, so most lines carry one or two faults.
TEMPLATES = [
    ["validate", "<path>", "--json"],
    ["analyze", "<path>", "--map", "<map>", "--json"],
    ["shadowing-profile", "<path>", "--measure", "<measure>", "--mode", "<mode>"],
    ["stability-profile", "<path>", "--target", "<target>", "--budget", "<int>",
     "--sample", "--sample-size", "<int>", "--seed", "<int>", "--json"],
    ["semiconjugacy", "<path>", "--f", "<map>", "--g", "<map>", "--measure",
     "<measure>", "--eps", "<rational>", "--e", "<rational>", "--json"],
    ["gen", "-n", "<int>", "--seed", "<int>", "--model", "<model>",
     "--coordinate-range", "<int>", "-o", "<out>"],
    ["check-theorem", "<item>", "--trials", "<int>", "--max-points", "<int>",
     "--budget", "<int>", "--json"],
]
SLOTS = {
    "<path>": ["{file}", "{missing}", "{dir}", ""],
    "<out>": ["{out}", "{dir}", "{missing}/out.json"],
    "<int>": ["2", "-1", "0", "1", "3", "x", "1/2", ""],
    "<rational>": ["1/2", "0", "1", "-1", "1/0", "abc", "3", "0.5"],
    "<target>": ["point:p0", "point:zz", "measure:full", "setvalued:dirac",
                 "measure:", "x:y", "point", "measure:nope"],
    "<map>": ["f", "zz", ""],
    "<measure>": ["full", "dirac", "nope"],
    "<mode>": ["weak", "all", "full", "mu", "x"],
    "<model>": ["explicit", "l1-lattice", "nope"],
    "<item>": ["1", "2", "7", "basicas", "9"],
}
TOKENS = ["", "-", "--", "--json", "--map", "--measure", "--target", "--budget",
          "--sample", "--eps", "--item", "-n", "-o", "f", "full", "1", "{file}"]


@st.composite
def mutated_argvs(draw):
    """A command line with its slots filled and up to two tokens replaced,
    deleted or inserted."""
    argv = [draw(st.just(SLOTS[t][0]) | st.sampled_from(SLOTS[t])) if t in SLOTS else t
            for t in draw(st.sampled_from(TEMPLATES))]
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(("replace", "delete", "insert")))
        i = draw(st.integers(0, max(len(argv) - 1, 0)))
        if action == "delete" and argv:
            del argv[i]
        elif action == "replace" and argv:
            argv[i] = draw(st.sampled_from(TOKENS))
        else:
            argv.insert(i, draw(st.sampled_from(TOKENS)))
    return argv


@settings(FUZZ, max_examples=200)
@given(argv=mutated_argvs())
def test_mutated_arguments_exit_cleanly(argv, tmp_path):
    sysfile = tmp_path / "sys.json"
    sysfile.write_text(BASE_TEXT)  # rewritten each time: "gen -o" may clobber it
    names = {"file": sysfile, "missing": tmp_path / "missing",
             "dir": tmp_path, "out": tmp_path / "out.json"}
    argv = [t.format(**{k: str(v) for k, v in names.items()}) for t in argv]
    code, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.strip(), argv  # a rejection always says why


@FUZZ
@given(argv=st.lists(st.text(max_size=8), max_size=4))
def test_garbage_arguments_exit_2(argv):
    code, err = run(argv)
    assert "Traceback" not in err
    if argv and not argv[0].startswith("-"):
        assert code == 2, (argv, err)  # no such subcommand
    else:
        assert code in (0, 2), (argv, err)  # only --help or --version exit 0


def test_garbage_file_exit_code_through_a_real_process(tmp_path):
    """The in-process runs above see exceptions; this sees the real stderr."""
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 5000)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mustab.cli", "validate", str(bad)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
