import dataclasses
import json

import pytest

from torusglue.gluing import GluingMap
from torusglue.lattice import AbelianGroup, IntMatrix
from torusglue.manifold_files import (
    ManifoldFile,
    ManifoldFileError,
    parse_manifold_file,
    serialize_manifold_file,
)
from torusglue.pieces import PieceKind, sample_piece, torus_times_disk
from torusglue.surgery import SURGERY_DISK_PAIR


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
    acyclic = dataclasses.replace(
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
    "mutate, field",
    [
        (lambda d: d.update(version="7"), "version"),
        (lambda d: d.update(pieces=d["pieces"][:1]), "pieces"),
        (lambda d: d["pieces"][0].update(kind="mystery"), "pieces[0].kind"),
        (lambda d: d["pieces"][1].update(lambda_index=5), "pieces[1]"),
        (lambda d: d["pieces"][0].update(genus="x"), "pieces[0].genus"),
        pytest.param(
            lambda d: d["pieces"][0].update(genus=True), "pieces[0].genus", id="genus-bool"
        ),
        (lambda d: d["pieces"][0].update(framing=["a", "b"]), "pieces[0].framing"),
        (lambda d: d["pieces"][0]["h1"].update(torsion=[1]), "pieces[0].h1"),
        (
            lambda d: d["pieces"][0].update(inclusion=[[1, 0], [0, 1]]),
            "pieces[0].inclusion[0]",
        ),
        (lambda d: d["gluing"].update(matrix=[[2, 0, 0], [0, 1, 0], [0, 0, 1]]), "gluing.matrix"),
        (lambda d: d["gluing"].update(matrix=[[1, 0, 0], [0, 1, 0]]), "gluing.matrix"),
        (lambda d: d.update(gluing="nope"), "gluing"),
        (lambda d: d.update(metadata=7), "metadata"),
        pytest.param(
            lambda d: d.update(metadata={"x": float("nan")}), "metadata", id="metadata-nan"
        ),
    ],
)
def test_parse_errors_name_the_field(mutate, field):
    doc = json.loads(example_file())
    mutate(doc)
    with pytest.raises(ManifoldFileError) as err:
        parse_manifold_file(json.dumps(doc))
    assert err.value.field_path == field
    if doc["pieces"][0].get("genus") is True:
        assert str(err.value) == "pieces[0].genus: expected an integer, got bool"


def test_parse_error_on_bad_json():
    with pytest.raises(ManifoldFileError) as err:
        parse_manifold_file("{not json")
    assert err.value.field_path == "(document)"
