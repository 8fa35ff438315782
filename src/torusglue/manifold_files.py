"""JSON file format for glued-manifold descriptions.

Schema (version "1"):

    {
      "version": "1",
      "pieces": [<piece>, <piece>],
      "gluing": {"matrix": [[..3 ints..] x3], "orientation_note": "<text>"},
      "metadata": {<free-form labels: string keys, finite numbers>}
    }

    <piece> = {
      "kind": "knot_exterior_product" | "surface_bundle_over_torus"
              | "torus_times_disk",
      "genus": <int >= 0>,
      "monodromy_label": "<opaque text>",
      "framing": ["<e1>", "<e2>", "<e3>"],
      "lambda_index": 1 | 2 | 3,
      "h1": {"free_rank": <int>, "torsion": [<ints>]} | null,
      "inclusion": [[..3 ints..] x rows] | null
    }

The gluing matrix expresses the second piece's boundary basis in the first
piece's coordinates and must have determinant +-1.  Serialization is
canonical (sorted keys, two-space indent, trailing newline), so files
written by serialize_manifold_file round-trip byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .gluing import GluingMap
from .lattice import AbelianGroup, IntMatrix, NotUnimodular
from .pieces import Piece, PieceKind

FORMAT_VERSION = "1"


class ManifoldFileError(ValueError):
    """A manifold file that does not match the schema; names the bad field."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


def _expect(obj: Any, typ: type, path: str, what: str) -> Any:
    if not isinstance(obj, typ) or isinstance(obj, bool) and typ is int:
        raise ManifoldFileError(path, f"expected {what}, got {type(obj).__name__}")
    return obj


def _version(obj: Any) -> str:
    version = _expect(obj, str, "version", "a version string")
    if version != FORMAT_VERSION:
        raise ManifoldFileError("version", f"unsupported version {version!r}; expected {FORMAT_VERSION!r}")
    return version


@dataclass(frozen=True, eq=False)
class ManifoldFile:
    """A parsed manifold description; one that would serialize to text the
    parser rejects fails here, naming the field of the file."""

    version: str
    pieces: tuple[Piece, Piece]
    gluing: GluingMap
    orientation_note: str = ""
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _version(self.version)
        pieces = self.pieces
        if not (
            isinstance(pieces, tuple)
            and len(pieces) == 2
            and all(isinstance(p, Piece) for p in pieces)
        ):
            raise ManifoldFileError("pieces", f"expected a pair of Piece, got {pieces!r:.80}")
        _expect(self.gluing, GluingMap, "gluing", "a GluingMap")
        _expect(self.orientation_note, str, "gluing.orientation_note", "a string")
        _expect(self.metadata, dict, "metadata", "an object")
        # plain JSON reads back equal to itself: a non-string key comes back
        # a string, a tuple a list, and a set or a NaN does not encode
        try:
            plain = json.loads(json.dumps(self.metadata, allow_nan=False)) == self.metadata
        except (TypeError, ValueError, RecursionError) as exc:
            raise ManifoldFileError("metadata", f"not plain JSON: {exc}") from exc
        if not plain:
            raise ManifoldFileError("metadata", "not plain JSON: a non-string key or a tuple")


def _int_rows(obj: Any, path: str) -> IntMatrix:
    rows = _expect(obj, list, path, "a list of rows")
    entries = []
    for i, row in enumerate(rows):
        row = _expect(row, list, f"{path}[{i}]", "a list of integers")
        if len(row) != 3:
            raise ManifoldFileError(f"{path}[{i}]", f"expected 3 entries, got {len(row)}")
        entries += [_expect(x, int, f"{path}[{i}][{j}]", "an integer") for j, x in enumerate(row)]
    return IntMatrix(len(rows), 3, tuple(entries))  # shaped, so [] reads back as 0x3


def _piece_from_obj(obj: Any, path: str) -> Piece:
    d = _expect(obj, dict, path, "a piece object")
    kind_name = _expect(d.get("kind"), str, f"{path}.kind", "a piece kind string")
    try:
        kind = PieceKind(kind_name)
    except ValueError:
        valid = ", ".join(k.value for k in PieceKind)
        raise ManifoldFileError(f"{path}.kind", f"unknown kind {kind_name!r}; one of: {valid}")
    genus = _expect(d.get("genus"), int, f"{path}.genus", "an integer")
    label = _expect(d.get("monodromy_label", ""), str, f"{path}.monodromy_label", "a string")
    framing = _expect(d.get("framing"), list, f"{path}.framing", "a list of three names")
    if len(framing) != 3 or not all(isinstance(x, str) for x in framing):
        raise ManifoldFileError(f"{path}.framing", "expected three strings")
    lam = _expect(d.get("lambda_index"), int, f"{path}.lambda_index", "an integer")
    h1 = d.get("h1")
    incl = d.get("inclusion")
    group = None
    incl_matrix = None
    if h1 is not None:
        h1 = _expect(h1, dict, f"{path}.h1", "an object")
        torsion = _expect(h1.get("torsion", []), list, f"{path}.h1.torsion", "a list")
        try:
            group = AbelianGroup(
                free_rank=_expect(h1.get("free_rank"), int, f"{path}.h1.free_rank", "an integer"),
                torsion=tuple(
                    _expect(t, int, f"{path}.h1.torsion[{i}]", "an integer")
                    for i, t in enumerate(torsion)
                ),
            )
        except ValueError as exc:
            raise ManifoldFileError(f"{path}.h1", str(exc)) from exc
    if incl is not None:
        incl_matrix = _int_rows(incl, f"{path}.inclusion")
    try:
        return Piece(
            kind=kind,
            genus=genus,
            monodromy_label=label,
            framing=tuple(framing),
            lambda_index=lam,
            h1=group,
            inclusion=incl_matrix,
        )
    except ValueError as exc:
        raise ManifoldFileError(path, str(exc)) from exc


def parse_manifold_file(text: str) -> ManifoldFile:
    """Parse and validate a manifold description; raise ManifoldFileError
    naming the offending field on any problem."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifoldFileError("(document)", f"not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past Python's int-string conversion limit, or nesting
        # past the interpreter's recursion limit
        raise ManifoldFileError("(document)", f"unreadable JSON: {exc}") from exc
    doc = _expect(doc, dict, "(document)", "a JSON object")
    version = _version(doc.get("version"))
    pieces_obj = _expect(doc.get("pieces"), list, "pieces", "a list of two pieces")
    if len(pieces_obj) != 2:
        raise ManifoldFileError("pieces", f"expected exactly two pieces, got {len(pieces_obj)}")
    pieces = tuple(_piece_from_obj(p, f"pieces[{i}]") for i, p in enumerate(pieces_obj))
    gluing_obj = _expect(doc.get("gluing"), dict, "gluing", "an object")
    matrix = _int_rows(gluing_obj.get("matrix"), "gluing.matrix")
    try:
        gluing = GluingMap(matrix)
    except NotUnimodular as exc:
        raise ManifoldFileError("gluing.matrix", str(exc)) from exc
    return ManifoldFile(
        version=version,
        pieces=pieces,
        gluing=gluing,
        orientation_note=gluing_obj.get("orientation_note", ""),
        metadata=doc.get("metadata", {}),
    )


def matrix_to_obj(m: IntMatrix) -> list[list[int]]:
    return [list(r) for r in m.to_rows()]


def h1_to_obj(h1: AbelianGroup) -> dict[str, Any]:
    return {"free_rank": h1.free_rank, "torsion": list(h1.torsion)}


def piece_to_obj(p: Piece) -> dict[str, Any]:
    return {
        "kind": p.kind.value,
        "genus": p.genus,
        "monodromy_label": p.monodromy_label,
        "framing": list(p.framing),
        "lambda_index": p.lambda_index,
        "h1": None if p.h1 is None else h1_to_obj(p.h1),
        "inclusion": None if p.inclusion is None else matrix_to_obj(p.inclusion),
    }


def serialize_manifold_file(mf: ManifoldFile) -> str:
    """Canonical serialization: sorted keys, 2-space indent, trailing newline."""
    doc = {
        "version": mf.version,
        "pieces": [piece_to_obj(p) for p in mf.pieces],
        "gluing": {
            "matrix": matrix_to_obj(mf.gluing.m),
            "orientation_note": mf.orientation_note,
        },
        "metadata": mf.metadata,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
