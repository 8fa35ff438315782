"""Fuzzing of the command line: mutated manifold files, and argument lists.

Valid documents (every piece-kind pair under a few gluings, plus the
README example without declared homology on its second piece) are
mutated: a field is dropped, or replaced by another JSON value, a small
integer, an integer of up to 5000 digits (past Python's int-string
conversion limit), or a value nested past the recursion limit.  Whatever
the mutation, `fibration` and `homology` must end in a documented exit
code, never in an exception.

Argument lists for every subcommand carry integers of 1, 40 and 4000
digits, unknown or malformed piece kinds, out-of-range `--max-entry`
values and arbitrary `--sigma` text, with an argument sometimes dropped or
added.  They too must end in a documented exit code.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import string
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusglue.cli import main
from torusglue.gluing import GluingMap
from torusglue.lattice import IntMatrix
from torusglue.manifold_files import ManifoldFile, serialize_manifold_file
from torusglue.pieces import PieceKind, sample_piece

DATA = Path(__file__).parent / "data"

GLUING_COLUMNS = [
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    [(0, 0, 1), (1, 0, 0), (0, 1, 0)],
    [(1, 0, 0), (0, 0, 1), (0, 1, 0)],
    [(2, 1, 0), (1, 1, 0), (0, 0, 1)],
]


def _valid_documents() -> list[dict]:
    docs = []
    for (k1, k2), cols in itertools.product(
        itertools.product(PieceKind, repeat=2), GLUING_COLUMNS
    ):
        mf = ManifoldFile(
            version="1",
            pieces=(sample_piece(k1), sample_piece(k2)),
            gluing=GluingMap(IntMatrix.from_columns(cols)),
        )
        docs.append(json.loads(serialize_manifold_file(mf)))
    docs.append(json.loads((DATA / "readme_example.json").read_text()))
    return docs


VALID_DOCUMENTS = _valid_documents()

FIELD_NAMES = [
    "version", "pieces", "gluing", "matrix", "orientation_note", "metadata", "kind",
    "genus", "monodromy_label", "framing", "lambda_index", "h1", "free_rank",
    "torsion", "inclusion",
]
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-3, 4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet=string.ascii_letters + "_ ", max_size=8)
    | st.sampled_from(["1", *(k.value for k in PieceKind)])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES), inner, max_size=4),
    max_leaves=12,
)


def _paths(node, prefix=()):
    """Every path below the root, as tuples of keys and indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated_text(data) -> str:
    doc = copy.deepcopy(data.draw(st.sampled_from(VALID_DOCUMENTS)))
    raw = {}
    for n in range(data.draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        *where, key = data.draw(st.sampled_from(paths))
        parent = doc
        for k in where:
            parent = parent[k]
        op = data.draw(st.sampled_from(["drop", "replace", "small", "huge", "deep"]))
        if op == "drop":
            del parent[key]
        elif op == "replace":
            parent[key] = data.draw(JSON_VALUES)
        elif op == "small":  # often still valid: a genus, an inclusion entry
            parent[key] = data.draw(st.integers(-3, 4))
        else:
            # spliced into the text, since json.dumps cannot write either
            marker = f"@mutation{n}@"
            if op == "huge":
                raw[marker] = "9" * data.draw(st.sampled_from([40, 400, 5000]))
            else:
                depth = data.draw(st.sampled_from([50, 200000]))
                raw[marker] = "[" * depth + "]" * depth
            parent[key] = marker
    text = json.dumps(doc)
    for marker, value in raw.items():
        text = text.replace(json.dumps(marker), value)
    return text


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_manifold_files_exit_cleanly(fuzz_file, data):
    fuzz_file.write_text(_mutated_text(data))
    for command in ("fibration", "homology"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(fuzz_file)])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")


INTS = st.tuples(
    st.sampled_from(["", "-"]),
    st.sampled_from([1, 40, 4000]).flatmap(
        lambda n: st.integers(10 ** (n - 1) if n > 1 else 0, 10**n - 1)
    ),
).map(lambda t: t[0] + str(t[1]))
# a value left on its own when its flag is dropped is read as an option, and
# -h would print help and raise SystemExit (argparse's contract), so text
# values never start with "-"
TEXT = st.text(max_size=12).filter(lambda s: not s.startswith("-"))
KIND_WORDS = [k.value for k in PieceKind] + ["torus", "", " torus_times_disk", "TORUS_TIMES_DISK"]
PIECES = st.lists(st.sampled_from(KIND_WORDS), min_size=1, max_size=3).map(",".join) | TEXT
# 1 is in range but enumerates in well under a second; 2 would take seconds
MAX_ENTRIES = INTS.filter(lambda s: s not in ("1", "2")) | st.just("1")
SIGMAS = st.sampled_from(["unknown", "UNKNOWN", "0"]) | INTS | TEXT
FILES = [
    str(DATA / "homology_example.json"), str(DATA / "readme_example.json"), str(DATA), "missing.json"
]


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(
        ["surgery", "fibration", "homology", "enumerate", "check-obstruction"]
    ))
    argv = [command]
    if command == "surgery":
        argv += [draw(INTS), draw(INTS)]
        if draw(st.booleans()):
            argv += ["--completion-seed", draw(INTS)]
    elif command in ("fibration", "homology"):
        argv.append(draw(st.sampled_from(FILES)))
    elif command == "enumerate":
        argv += ["--max-entry", draw(MAX_ENTRIES)]
        if draw(st.booleans()):
            argv += ["--pieces", draw(PIECES)]
    else:
        argv += ["--chi", draw(INTS), "--sigma", draw(SIGMAS)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "machine-readable", "yaml"]))]
    if draw(st.booleans()):
        argv.append("--quiet")
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop":
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif change == "add":
        argv.append(draw(st.sampled_from(["extra", "--bogus", "7"])))
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
@example(argv=["surgery", "1", "9" * 4000, "--completion-seed", "9" * 4000])
def test_argv_exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code != 0:
        assert err.getvalue().startswith("error: ")
