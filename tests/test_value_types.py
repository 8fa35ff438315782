"""The immutable value types behave as the frozen dataclasses they replace:
the same repr, equality and hash over the fields, no assignment or deletion,
pickling by value; ManifoldFile compares by identity.  The reprs below are
the dataclass reprs, recorded before the change.  Every constructor takes
the fields in __slots__ order; the three record types take them through
Value's own constructor, positionally or by name."""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import torusglue
from torusglue.enumeration import Verdict, check
from torusglue.gluing import FibrationResult, GluedManifold, find_fibration, glue
from torusglue.lattice import AbelianGroup, IntMatrix, Value, smith_normal_form
from torusglue.manifold_files import ManifoldFile
from torusglue.pieces import PieceKind, sample_piece
from torusglue.surgery import SURGERY_DISK_PAIR, LensSpace, SurgerySpec
from torusglue.torus3 import CurveClass, FibrationOfT3, TorusClass


def _glued():
    return glue(*SURGERY_DISK_PAIR, SurgerySpec.from_slope(2, 5).gluing)


def _manifold_file():
    return ManifoldFile("1", SURGERY_DISK_PAIR, _glued().f, "note", {"a": 1})


GLUING = "GluingMap(m=IntMatrix(rows=3, cols=3, entries=(5, 2, 0, 2, 1, 0, 0, 0, 1)))"
DISK_W = (
    "Piece(kind=<PieceKind.TORUS_TIMES_DISK: 'torus_times_disk'>, genus=0, monodromy_label='',"
    " framing=('mu', 'lambda', 's'), lambda_index=2, h1=AbelianGroup(free_rank=2, torsion=()),"
    " inclusion=IntMatrix(rows=2, cols=3, entries=(1, 0, 0, 0, 0, 1)))"
)
DISK_W_PRIME = (
    "Piece(kind=<PieceKind.TORUS_TIMES_DISK: 'torus_times_disk'>, genus=0, monodromy_label='',"
    " framing=('lambda', 'mu', 's'), lambda_index=1, h1=AbelianGroup(free_rank=2, torsion=()),"
    " inclusion=IntMatrix(rows=2, cols=3, entries=(0, 1, 0, 0, 0, 1)))"
)
CERT_W = (
    "ExtensionCertificate(gamma=CurveClass(v=(1, 0, 0)), lam=CurveClass(v=(0, 1, 0)),"
    " alpha=CurveClass(v=(0, 0, 1)))"
)

# (fresh instance, field names in constructor order, repr)
CASES = [
    (
        lambda: IntMatrix(2, 2, (1, 2, 0, 1)),
        ("rows", "cols", "entries"),
        "IntMatrix(rows=2, cols=2, entries=(1, 2, 0, 1))",
    ),
    (
        lambda: smith_normal_form(IntMatrix(1, 2, (2, 4))),
        ("U", "D", "V"),
        "SNFDecomposition(U=IntMatrix(rows=1, cols=1, entries=(1,)),"
        " D=IntMatrix(rows=1, cols=2, entries=(2, 0)),"
        " V=IntMatrix(rows=2, cols=2, entries=(1, -2, 0, 1)))",
    ),
    (
        lambda: AbelianGroup(1, (2, 4)),
        ("free_rank", "torsion"),
        "AbelianGroup(free_rank=1, torsion=(2, 4))",
    ),
    (lambda: CurveClass((1, -2, 3)), ("v",), "CurveClass(v=(1, -2, 3))"),
    (lambda: TorusClass((0, 1, 1)), ("n",), "TorusClass(n=(0, 1, 1))"),
    (
        lambda: FibrationOfT3((0, 0, 1), ((1, 0, 0), (0, 1, 0))),
        ("phi", "fiber_basis"),
        "FibrationOfT3(phi=(0, 0, 1), fiber_basis=((1, 0, 0), (0, 1, 0)))",
    ),
    (
        lambda: sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT),
        ("kind", "genus", "monodromy_label", "framing", "lambda_index", "h1", "inclusion"),
        "Piece(kind=<PieceKind.KNOT_EXTERIOR_PRODUCT: 'knot_exterior_product'>, genus=1,"
        " monodromy_label='genus-1 fibered knot in S^3', framing=('mu', 'lambda', 's'),"
        " lambda_index=2, h1=AbelianGroup(free_rank=2, torsion=()),"
        " inclusion=IntMatrix(rows=2, cols=3, entries=(1, 0, 0, 0, 0, 1)))",
    ),
    (lambda: find_fibration(_glued()).cert_w, ("gamma", "lam", "alpha"), CERT_W),
    (lambda: _glued().f, ("m",), GLUING),
    (
        _glued,
        ("w", "w_prime", "f"),
        f"GluedManifold(w={DISK_W}, w_prime={DISK_W_PRIME}, f={GLUING})",
    ),
    (
        lambda: find_fibration(_glued()),
        ("phi", "cert_w", "cert_w_prime", "parallel_case"),
        "FibrationResult(phi=FibrationOfT3(phi=(0, 0, 1), fiber_basis=((0, 1, 0), (1, 0, 0))),"
        f" cert_w={CERT_W}, cert_w_prime=ExtensionCertificate(gamma=CurveClass(v=(0, 1, 0)),"
        " lam=CurveClass(v=(1, 0, 0)), alpha=CurveClass(v=(0, 0, 1))), parallel_case=False)",
    ),
    (lambda: LensSpace(5, 2), ("q", "p"), "LensSpace(q=5, p=2)"),
    (
        lambda: SurgerySpec.from_slope(2, 5),
        ("p", "q", "gluing"),
        f"SurgerySpec(p=2, q=5, gluing={GLUING})",
    ),
    (
        _manifold_file,
        ("version", "pieces", "gluing", "orientation_note", "metadata"),
        f"ManifoldFile(version='1', pieces=({DISK_W}, {DISK_W_PRIME}), gluing={GLUING},"
        " orientation_note='note', metadata={'a': 1})",
    ),
    (
        lambda: check(_glued()),
        ("h1", "chi", "lens", "fibration", "consistent"),
        "Verdict(h1=AbelianGroup(free_rank=1, torsion=(5,)), chi=0, lens=LensSpace(q=5, p=2),"
        " fibration=None, consistent=True)",
    ),
]
IDS = [expected.partition("(")[0] for _, _, expected in CASES]


@pytest.mark.parametrize("make, fields, expected", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(make, fields, expected):
    assert repr(make()) == expected


@pytest.mark.parametrize("make, fields, expected", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(make, fields, expected):
    a, b = make(), make()
    assert a is not b
    assert a == a
    if isinstance(a, ManifoldFile):  # identity: its metadata is a mutable dict
        assert a != b
    else:
        assert a == b and hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in fields))
    others = [m() for m, _, _ in CASES if m is not make]
    assert all(a != other and other != a for other in others)
    assert a != tuple(getattr(a, name) for name in fields)


@pytest.mark.parametrize("make, fields, expected", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(make, fields, expected):
    a = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == expected


@pytest.mark.parametrize("make, fields, expected", CASES, ids=IDS)
def test_fields_are_slots(make, fields, expected):
    a = make()
    assert type(a).__slots__ == fields
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("make, fields, expected", CASES, ids=IDS)
def test_pickling_round_trips(make, fields, expected):
    assert repr(pickle.loads(pickle.dumps(make()))) == expected


def _value_types() -> set[type]:
    """Every Value subclass the package defines, each module imported."""
    for module in pkgutil.iter_modules(torusglue.__path__):
        if module.name != "__main__":
            importlib.import_module(f"torusglue.{module.name}")
    found, todo = set(), [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("torusglue.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


RECORD_TYPES = (GluedManifold, FibrationResult, Verdict)  # no __init__ of their own
RECORD_IDS = [cls.__name__ for cls in RECORD_TYPES]
RECORDS = [CASES[IDS.index(name)] for name in RECORD_IDS]


def test_every_value_type_has_a_case():
    assert {type(make()) for make, _, _ in CASES} == _value_types()


@pytest.mark.parametrize("make, fields, expected", CASES, ids=IDS)
def test_constructor_parameters_are_the_slots(make, fields, expected):
    # positional Value.__init__ calls and __reduce__ rely on this order
    cls = type(make())
    if cls.__init__ is Value.__init__:
        assert cls in RECORD_TYPES
        params = cls.__slots__
    else:
        params = tuple(inspect.signature(cls.__init__).parameters)[1:]
    assert params == fields


@pytest.mark.parametrize("make, fields, expected", RECORDS, ids=RECORD_IDS)
def test_record_types_build_positionally_and_by_name(make, fields, expected):
    a = make()
    cls, values = type(a), [getattr(a, name) for name in fields]
    named = dict(zip(fields, values))
    mixed = cls(values[0], **dict(zip(fields[1:], values[1:])))
    assert cls(*values) == cls(**named) == mixed == a
    assert repr(cls(*values)) == expected


@pytest.mark.parametrize("make, fields, expected", RECORDS, ids=RECORD_IDS)
def test_record_types_refuse_a_wrong_field(make, fields, expected):
    a = make()
    cls, values = type(a), [getattr(a, name) for name in fields]
    named = dict(zip(fields, values))
    wrong = {
        f"missing {fields[-1]}": (values[:-1], {}),
        f"repeated {fields[0]}": (values, {fields[0]: values[0]}),
        "unknown colour": ((), named | {"colour": 1}),
        "1 extra": ((*values, None), {}),
    }
    for fault, (args, kwargs) in wrong.items():
        with pytest.raises(TypeError, match=f"^{cls.__name__}\\({', '.join(fields)}\\): {fault}$"):
            cls(*args, **kwargs)
