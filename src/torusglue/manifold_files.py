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
canonical: the text of a file is json.dumps(doc, indent=2, sort_keys=True)
plus a newline, doc being the file as the nested dicts and lists above, so
files written by serialize_manifold_file round-trip byte-identically.  The
writer lays that text out itself from the schema; the tests check it
against json.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

from .gluing import GluingMap
from .lattice import AbelianGroup, IntMatrix, NotUnimodular, Value
from .pieces import Piece, PieceKind

FORMAT_VERSION = "1"
_NEW_DICT: Any = object()  # ManifoldFile's default metadata: a fresh {} each time


class ManifoldFileError(ValueError):
    """A manifold file that does not match the schema; names the bad field."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


def _expect(obj: Any, typ: type, what: str, path: str, *keys: str | int) -> Any:
    """obj if it is a typ (a bool is no int); else the error naming the field,
    path with keys appended, as in ("pieces[0]", "h1", "torsion", 2) ->
    pieces[0].h1.torsion[2], formatted only then."""
    if not isinstance(obj, typ) or typ is int and isinstance(obj, bool):
        for key in keys:
            path += f"[{key}]" if isinstance(key, int) else f".{key}"
        raise ManifoldFileError(path, f"expected {what}, got {type(obj).__name__}")
    return obj


def _version(obj: Any) -> str:
    version = _expect(obj, str, "a version string", "version")
    if version != FORMAT_VERSION:
        raise ManifoldFileError("version", f"unsupported version {version!r}; expected {FORMAT_VERSION!r}")
    return version


class ManifoldFile(Value):
    """A parsed manifold description; one that would serialize to text the
    parser rejects fails here, naming the field of the file.  Equality is
    identity, since metadata is a mutable dict."""

    __slots__ = ("version", "pieces", "gluing", "orientation_note", "metadata")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, version: str, pieces: tuple[Piece, Piece], gluing: GluingMap,
        orientation_note: str = "", metadata: dict[str, Any] = _NEW_DICT,
    ) -> None:
        metadata = {} if metadata is _NEW_DICT else metadata
        Value.__init__(self, version, pieces, gluing, orientation_note, metadata)
        _version(self.version)
        pieces = self.pieces
        if not (
            isinstance(pieces, tuple)
            and len(pieces) == 2
            and all(isinstance(p, Piece) for p in pieces)
        ):
            raise ManifoldFileError("pieces", f"expected a pair of Piece, got {pieces!r:.80}")
        _expect(self.gluing, GluingMap, "a GluingMap", "gluing")
        _expect(self.orientation_note, str, "a string", "gluing.orientation_note")
        _expect(self.metadata, dict, "an object", "metadata")
        # plain JSON reads back equal to itself: a non-string key comes back
        # a string, a tuple a list, and a set or a NaN does not encode
        try:
            plain = json.loads(json.dumps(self.metadata, allow_nan=False)) == self.metadata
        except (TypeError, ValueError, RecursionError) as exc:
            raise ManifoldFileError("metadata", f"not plain JSON: {exc}") from exc
        if not plain:
            raise ManifoldFileError("metadata", "not plain JSON: a non-string key or a tuple")


def _int_rows(obj: Any, path: str, key: str) -> IntMatrix:
    rows = _expect(obj, list, "a list of rows", path, key)
    entries = []
    for i, row in enumerate(rows):
        row = _expect(row, list, "a list of integers", path, key, i)
        if len(row) != 3:
            raise ManifoldFileError(f"{path}.{key}[{i}]", f"expected 3 entries, got {len(row)}")
        for j, x in enumerate(row):
            _expect(x, int, "an integer", path, key, i, j)
        entries += row
    return IntMatrix(len(rows), 3, tuple(entries))  # shaped, so [] reads back as 0x3


def _piece_from_obj(obj: Any, path: str) -> Piece:
    d = _expect(obj, dict, "a piece object", path)
    kind_name = _expect(d.get("kind"), str, "a piece kind string", path, "kind")
    try:
        kind = PieceKind(kind_name)
    except ValueError:
        valid = ", ".join(k.value for k in PieceKind)
        raise ManifoldFileError(f"{path}.kind", f"unknown kind {kind_name!r}; one of: {valid}")
    genus = _expect(d.get("genus"), int, "an integer", path, "genus")
    label = _expect(d.get("monodromy_label", ""), str, "a string", path, "monodromy_label")
    framing = _expect(d.get("framing"), list, "a list of three names", path, "framing")
    if len(framing) != 3 or not all(isinstance(x, str) for x in framing):
        raise ManifoldFileError(f"{path}.framing", "expected three strings")
    lam = _expect(d.get("lambda_index"), int, "an integer", path, "lambda_index")
    h1 = d.get("h1")
    incl = d.get("inclusion")
    group = None
    incl_matrix = None
    if h1 is not None:
        h1 = _expect(h1, dict, "an object", path, "h1")
        torsion = _expect(h1.get("torsion", []), list, "a list", path, "h1", "torsion")
        free_rank = _expect(h1.get("free_rank"), int, "an integer", path, "h1", "free_rank")
        for k, t in enumerate(torsion):
            _expect(t, int, "an integer", path, "h1", "torsion", k)
        try:
            group = AbelianGroup(free_rank=free_rank, torsion=tuple(torsion))
        except ValueError as exc:
            raise ManifoldFileError(f"{path}.h1", str(exc)) from exc
    if incl is not None:
        incl_matrix = _int_rows(incl, path, "inclusion")
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
    doc = _expect(doc, dict, "a JSON object", "(document)")
    version = _version(doc.get("version"))
    pieces_obj = _expect(doc.get("pieces"), list, "a list of two pieces", "pieces")
    if len(pieces_obj) != 2:
        raise ManifoldFileError("pieces", f"expected exactly two pieces, got {len(pieces_obj)}")
    pieces = tuple(_piece_from_obj(p, f"pieces[{i}]") for i, p in enumerate(pieces_obj))
    gluing_obj = _expect(doc.get("gluing"), dict, "an object", "gluing")
    matrix = _int_rows(gluing_obj.get("matrix"), "gluing", "matrix")
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


def _array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items as json.dumps(indent=2) lays it out when
    its opening bracket sits on a line indented by indent."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _matrix_text(m: IntMatrix, indent: str) -> str:
    """A matrix's rows, each an array of three integers, as _array lays them out."""
    row = "[\n{0}{{}},\n{0}{{}},\n{0}{{}}\n{1}]".format(indent + "    ", indent + "  ")
    return _array([row.format(*r) for r in m.to_rows()], indent)


def _piece_text(p: Piece) -> str:
    """A piece object as an item of the top-level pieces list (depth 2)."""
    h1 = "null"
    if p.h1 is not None:
        torsion = _array(list(map(str, p.h1.torsion)), "        ")
        h1 = f'{{\n        "free_rank": {p.h1.free_rank},\n        "torsion": {torsion}\n      }}'
    inclusion = "null" if p.inclusion is None else _matrix_text(p.inclusion, "      ")
    return (
        "{"
        f'\n      "framing": {_array(list(map(encode_basestring_ascii, p.framing)), "      ")},'
        f'\n      "genus": {p.genus},'
        f'\n      "h1": {h1},'
        f'\n      "inclusion": {inclusion},'
        f'\n      "kind": {encode_basestring_ascii(p.kind.value)},'
        f'\n      "lambda_index": {p.lambda_index},'
        f'\n      "monodromy_label": {encode_basestring_ascii(p.monodromy_label)}'
        "\n    }"
    )


def serialize_manifold_file(mf: ManifoldFile) -> str:
    """Canonical serialization: json.dumps(doc, indent=2, sort_keys=True)
    plus a newline, written key by key in sorted order.  Metadata is the one
    free-form value; json lays it out, and re-indenting each of its lines by
    two spaces places it at depth 1, since an escaped JSON string holds no
    raw newline."""
    metadata = json.dumps(mf.metadata, indent=2, sort_keys=True).replace("\n", "\n  ")
    return (
        "{"
        '\n  "gluing": {'
        f'\n    "matrix": {_matrix_text(mf.gluing.m, "    ")},'
        f'\n    "orientation_note": {encode_basestring_ascii(mf.orientation_note)}'
        "\n  },"
        f'\n  "metadata": {metadata},'
        f'\n  "pieces": {_array([_piece_text(p) for p in mf.pieces], "  ")},'
        f'\n  "version": {encode_basestring_ascii(mf.version)}'
        "\n}\n"
    )
