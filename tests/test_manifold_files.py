import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusglue.gluing import GluingMap
from torusglue.lattice import AbelianGroup, IntMatrix
from torusglue.manifold_files import (
    ManifoldFile,
    ManifoldFileError,
    parse_manifold_file,
    serialize_manifold_file,
)
from torusglue.pieces import Piece, PieceKind, sample_piece, torus_times_disk
from torusglue.surgery import SURGERY_DISK_PAIR

from conftest import replaced


def example_file(**overrides):
    doc = {
        "version": "1",
        "pieces": [
            {
                "kind": "torus_times_disk",
                "genus": 0,
                "monodromy_label": "",
                "framing": ["s", "mu", "lambda"],
                "lambda_index": 3,
                "h1": {"free_rank": 2, "torsion": []},
                "inclusion": [[1, 0, 0], [0, 1, 0]],
            },
            {
                "kind": "knot_exterior_product",
                "genus": 1,
                "monodromy_label": "figure-eight",
                "framing": ["mu", "lambda", "s"],
                "lambda_index": 2,
                "h1": None,
                "inclusion": None,
            },
        ],
        "gluing": {
            "matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            "orientation_note": "cyclic permutation",
        },
        "metadata": {"label": "fixture"},
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_example():
    mf = parse_manifold_file(example_file())
    assert mf.version == "1"
    assert mf.pieces[0].kind is PieceKind.TORUS_TIMES_DISK
    assert mf.pieces[1].kind is PieceKind.KNOT_EXTERIOR_PRODUCT
    assert mf.pieces[1].h1 is None
    assert mf.gluing.m.row(0) == (0, 1, 0)
    assert mf.orientation_note == "cyclic permutation"
    assert mf.metadata == {"label": "fixture"}


@pytest.mark.parametrize(
    "piece",
    [*(sample_piece(kind) for kind in PieceKind), *SURGERY_DISK_PAIR],
    ids=[*(kind.value for kind in PieceKind), "surgery-disk-1", "surgery-disk-2"],
)
def test_every_library_piece_parses_back_equal(piece):
    mf = ManifoldFile(version="1", pieces=(piece, piece), gluing=GluingMap(IntMatrix.identity(3)))
    assert parse_manifold_file(serialize_manifold_file(mf)).pieces == (piece, piece)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"version": "2"}, "version"),
        ({"version": 1}, "version"),
        ({"orientation_note": 5}, "gluing.orientation_note"),
        ({"metadata": [1]}, "metadata"),
        # serializing sorts keys: TypeError on comparing str with int
        ({"metadata": {1: "a", "b": 2}}, "metadata"),
        # alone, an int key would be written as "1" and read back a string
        ({"metadata": {"a": [{1: "b"}]}}, "metadata"),
        # TypeError: Object of type set is not JSON serializable
        ({"metadata": {"a": {1, 2}}}, "metadata"),
        ({"pieces": ("x", "y")}, "pieces"),
        ({"pieces": (torus_times_disk(),)}, "pieces"),
        ({"gluing": "z"}, "gluing"),
        ({"gluing": IntMatrix.identity(3)}, "gluing"),
    ],
    ids=[
        "version-2", "version-int", "note-int", "metadata-list",
        "metadata-mixed-keys", "metadata-nested-int-key", "metadata-set",
        "pieces-strings", "pieces-one", "gluing-string", "gluing-matrix",
    ],
)
def test_file_the_parser_would_reject_is_rejected_at_construction(overrides, field):
    fields = {
        "version": "1",
        "pieces": (torus_times_disk(), torus_times_disk()),
        "gluing": GluingMap(IntMatrix.identity(3)),
    }
    with pytest.raises(ManifoldFileError) as err:
        ManifoldFile(**{**fields, **overrides})
    assert err.value.field_path == field


def test_gluing_row_count_is_reported_by_the_gluing_map():
    doc = json.loads(example_file())
    for matrix in ([[1, 0, 0], [0, 1, 0]], []):
        doc["gluing"]["matrix"] = matrix
        with pytest.raises(ManifoldFileError, match=r"^gluing\.matrix: gluing matrix must be 3x3$"):
            parse_manifold_file(json.dumps(doc))


def test_canonical_round_trip_is_byte_identical():
    # the second input declares H_1 = 0, so its inclusion has no rows
    acyclic = replaced(
        sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT),
        h1=AbelianGroup(0, ()),
        inclusion=IntMatrix(0, 3, ()),
    )
    for second in (sample_piece(PieceKind.SURFACE_BUNDLE_OVER_TORUS), acyclic):
        mf = ManifoldFile(
            version="1",
            pieces=(torus_times_disk(), second),
            gluing=GluingMap(IntMatrix.from_columns([(0, 1, 0), (0, 0, 1), (1, 0, 0)])),
            orientation_note="",
            metadata={"name": "round trip", "nested": [1, 2.5, None, True, {"k": []}]},
        )
        text = serialize_manifold_file(mf)
        assert serialize_manifold_file(parse_manifold_file(text)) == text
        # twice more through the loop for good measure
        text2 = serialize_manifold_file(parse_manifold_file(text))
        assert serialize_manifold_file(parse_manifold_file(text2)) == text


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(version="7"), "version: unsupported version '7'; expected '1'"),
        (
            lambda d: d.update(pieces=d["pieces"][:1]),
            "pieces: expected exactly two pieces, got 1",
        ),
        (
            lambda d: d["pieces"][0].update(kind="mystery"),
            "pieces[0].kind: unknown kind 'mystery'; one of: knot_exterior_product, "
            "surface_bundle_over_torus, torus_times_disk",
        ),
        (
            lambda d: d["pieces"][1].update(lambda_index=5),
            "pieces[1]: lambda_index 5 not in 1..3",
        ),
        (
            lambda d: d["pieces"][0].update(genus="x"),
            "pieces[0].genus: expected an integer, got str",
        ),
        pytest.param(
            lambda d: d["pieces"][0].update(genus=True),
            "pieces[0].genus: expected an integer, got bool",
            id="genus-bool",
        ),
        (
            lambda d: d["pieces"][0].update(framing=["a", "b"]),
            "pieces[0].framing: expected three strings",
        ),
        pytest.param(
            lambda d: d["pieces"][0].update(genus=1),
            "pieces[0]: T^2 x D^2 has a genus-0 (disk) fiber",
            id="disk-genus-1",
        ),
        (
            lambda d: d["pieces"][0].update(
                h1={"free_rank": 3, "torsion": []}, inclusion=[[1, 0, 0], [0, 1, 0], [0, 0, 0]]
            ),
            "pieces[0]: T^2 x D^2 has H_1 = Z^2",
        ),
        (
            lambda d: d["pieces"][0]["h1"].update(torsion=[1]),
            "pieces[0].h1: invariant factor 1 < 2",
        ),
        (
            lambda d: d["pieces"][0].update(inclusion=[[1, 0], [0, 1]]),
            "pieces[0].inclusion[0]: expected 3 entries, got 2",
        ),
        (
            lambda d: d["gluing"].update(matrix=[[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
            "gluing.matrix: gluing matrix has determinant 2",
        ),
        (
            lambda d: d["gluing"].update(matrix=[[1, 0, 0], [0, 1, 0]]),
            "gluing.matrix: gluing matrix must be 3x3",
        ),
        (lambda d: d.update(gluing="nope"), "gluing: expected an object, got str"),
        (lambda d: d.update(metadata=7), "metadata: expected an object, got int"),
        pytest.param(
            lambda d: d.update(metadata={"x": float("nan")}),
            "metadata: not plain JSON: ",
            id="metadata-nan",
        ),
        # paths that are formatted only when the field is wrong
        pytest.param(
            lambda d: d["pieces"][1].update(
                h1={"free_rank": 3, "torsion": []},
                inclusion=[[1, 0, 0], [0, 0, 1], [0, "x", 0]],
            ),
            "pieces[1].inclusion[2][1]: expected an integer, got str",
            id="inclusion-entry-str",
        ),
        pytest.param(
            lambda d: d["gluing"]["matrix"][1].__setitem__(2, True),
            "gluing.matrix[1][2]: expected an integer, got bool",
            id="gluing-entry-bool",
        ),
        pytest.param(
            lambda d: d["pieces"][0]["h1"].update(torsion=["2"]),
            "pieces[0].h1.torsion[0]: expected an integer, got str",
            id="torsion-entry-str",
        ),
        pytest.param(
            lambda d: d["pieces"][0]["h1"].update(free_rank="2"),
            "pieces[0].h1.free_rank: expected an integer, got str",
            id="free-rank-str",
        ),
        pytest.param(
            lambda d: d["pieces"][0].update(framing=["s", 1, "lambda"]),
            "pieces[0].framing: expected three strings",
            id="framing-member-int",
        ),
    ],
    ids=lambda v: v.partition(":")[0] if isinstance(v, str) else None,
)
def test_parse_errors_name_the_field(mutate, message):
    # the whole message is checked, so a piece that fails the wrong check
    # fails the test; the case is named by its field
    doc = json.loads(example_file())
    mutate(doc)
    with pytest.raises(ManifoldFileError) as err:
        parse_manifold_file(json.dumps(doc))
    assert err.value.field_path == message.partition(":")[0]
    if message.endswith(": "):  # the json module's own text follows
        assert str(err.value).startswith(message)
    else:
        assert str(err.value) == message


def test_parse_error_on_bad_json():
    with pytest.raises(ManifoldFileError) as err:
        parse_manifold_file("{not json")
    assert err.value.field_path == "(document)"


# the writer's oracle: json's own indented layout of a document built here
# field by field, over every kind, every way of declaring h1, and text that
# json has to escape
TEXT = st.text(st.sampled_from('ab "\\\n\tü∂🌀'), max_size=5) | st.text(max_size=3)
METADATA = st.dictionaries(
    TEXT,
    st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-(10**20), 10**20)
        | st.floats(allow_nan=False, allow_infinity=False)
        | TEXT,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
        max_leaves=6,
    ),
    max_size=3,
)
UNIMODULAR_2X2 = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)), ((2, 1), (-1, -1))]
GLUINGS = [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((3, 1, 0), (2, 1, 0), (0, 0, -1)),
    ((1, 2, 0), (0, 1, 5), (0, 0, -1)),
]


@st.composite
def piece_docs(draw):
    kind = draw(st.sampled_from(PieceKind))
    lam = draw(st.integers(1, 3))
    others = [j for j in range(3) if j != lam - 1]
    if kind is PieceKind.TORUS_TIMES_DISK:
        genus, h1 = 0, {"free_rank": 2, "torsion": []}
        inclusion = [[0, 0, 0], [0, 0, 0]]
        for row, block in zip(inclusion, draw(st.sampled_from(UNIMODULAR_2X2))):
            row[others[0]], row[others[1]] = block
    else:
        genus = draw(st.integers(0, 5))
        declared = draw(st.sampled_from(["declared", "absent", "0x3"]))
        if declared == "absent":
            h1 = inclusion = None
        elif declared == "0x3":
            h1, inclusion = {"free_rank": 0, "torsion": []}, []
        else:
            torsion = draw(st.sampled_from([[], [2], [3, 6], [2, 4, 8]]))
            h1 = {"free_rank": draw(st.integers(0, 3)), "torsion": torsion}
            inclusion = []
            for _ in range(h1["free_rank"] + len(torsion)):
                row = draw(st.lists(st.integers(-20, 20), min_size=3, max_size=3))
                row[lam - 1] = 0
                inclusion.append(row)
    return {
        "kind": kind.value,
        "genus": genus,
        "monodromy_label": draw(TEXT),
        "framing": draw(st.lists(TEXT, min_size=3, max_size=3)),
        "lambda_index": lam,
        "h1": h1,
        "inclusion": inclusion,
    }


def _piece(d):
    h1, inclusion = d["h1"], d["inclusion"]
    return Piece(
        kind=PieceKind(d["kind"]),
        genus=d["genus"],
        monodromy_label=d["monodromy_label"],
        framing=tuple(d["framing"]),
        lambda_index=d["lambda_index"],
        h1=None if h1 is None else AbelianGroup(h1["free_rank"], tuple(h1["torsion"])),
        inclusion=None if inclusion is None else IntMatrix(len(inclusion), 3, sum(inclusion, [])),
    )


@given(
    st.lists(piece_docs(), min_size=2, max_size=2),
    st.sampled_from(GLUINGS),
    TEXT,
    METADATA,
)
@settings(max_examples=60, deadline=None)
def test_writer_equals_json_layout(pieces, matrix, note, metadata):
    doc = {
        "version": "1",
        "pieces": pieces,
        "gluing": {"matrix": [list(r) for r in matrix], "orientation_note": note},
        "metadata": metadata,
    }
    mf = ManifoldFile(
        version="1",
        pieces=(_piece(pieces[0]), _piece(pieces[1])),
        gluing=GluingMap(IntMatrix.from_rows(matrix)),
        orientation_note=note,
        metadata=metadata,
    )
    text = serialize_manifold_file(mf)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert serialize_manifold_file(parse_manifold_file(text)) == text
