import json
from pathlib import Path

import pytest

from torusglue import enumeration
from torusglue.cli import main
from torusglue.gluing import GluingMap
from torusglue.lattice import AbelianGroup, IntMatrix
from torusglue.manifold_files import ManifoldFile, serialize_manifold_file
from torusglue.pieces import PieceKind, sample_piece, torus_times_disk
from torusglue.surgery import classify_double_disk_gluing, lens_normalize

from conftest import run_python


@pytest.fixture
def swap_file(tmp_path):
    mf = ManifoldFile(
        version="1",
        pieces=(torus_times_disk(), torus_times_disk()),
        gluing=GluingMap(IntMatrix.from_columns([(1, 0, 0), (0, 0, 1), (0, 1, 0)])),
        orientation_note="exchanges mu and lambda",
    )
    path = tmp_path / "swap.json"
    path.write_text(serialize_manifold_file(mf))
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    mf = ManifoldFile(
        version="1",
        pieces=(torus_times_disk(), torus_times_disk()),
        gluing=GluingMap(IntMatrix.identity(3)),
    )
    path = tmp_path / "identity.json"
    path.write_text(serialize_manifold_file(mf))
    return str(path)


def test_surgery_2_3(capsys):
    assert main(["surgery", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "L(3,2); H1 = Z + Z/3; chi = 0; CONSISTENT"
    assert "gluing matrix" in out


def test_surgery_identity_slope(capsys):
    assert main(["surgery", "0", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "L(1,0); H1 = Z; chi = 0; CONSISTENT"


def test_surgery_usage_error_on_non_coprime(capsys):
    assert main(["surgery", "2", "4"]) == 1
    assert "gcd(2, 4) != 1" in capsys.readouterr().err


def test_surgery_quiet(capsys):
    assert main(["surgery", "2", "3", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out == "L(3,2); H1 = Z + Z/3; chi = 0; CONSISTENT\n"


def test_surgery_machine_readable(capsys):
    assert main(["surgery", "2", "3", "--format", "machine-readable"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["lens"] == {"q": 3, "p": 2}
    assert obj["h1"] == {"free_rank": 1, "torsion": [3]}
    assert obj["chi"] == 0
    assert obj["consistent"] is True
    assert len(obj["gluing"]["matrix"]) == 3


def test_surgery_completion_seed(capsys):
    assert main(["surgery", "2", "3", "--completion-seed", "5", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "L(3,2); H1 = Z + Z/3; chi = 0; CONSISTENT"


def test_fibration_swap_file(capsys, swap_file):
    assert main(["fibration", swap_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "phi = (1,0,0); torus = (1,0,0); parallel = false"
    assert "certificate W :" in out and "certificate W':" in out


def test_fibration_identity_file_parallel(capsys, identity_file):
    assert main(["fibration", identity_file, "--format", "machine-readable"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["parallel_case"] is True


def test_homology_swap_file(capsys, swap_file):
    assert main(["homology", swap_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "H1 = Z; chi = 0"


def test_parse_error_names_field(capsys, tmp_path):
    path = tmp_path / "bad.json"
    doc = {
        "version": "1",
        "pieces": [],
        "gluing": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    }
    path.write_text(json.dumps(doc))
    assert main(["homology", str(path)]) == 2
    assert "pieces" in capsys.readouterr().err


def test_parse_error_on_missing_file(capsys):
    assert main(["fibration", "/does/not/exist.json"]) == 2


def test_parse_error_on_bad_matrix(capsys, tmp_path, swap_file):
    text = json.loads(open(swap_file).read())
    text["gluing"]["matrix"] = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    path = tmp_path / "det2.json"
    path.write_text(json.dumps(text))
    assert main(["fibration", str(path)]) == 2
    assert "gluing.matrix" in capsys.readouterr().err


def test_parse_error_on_integer_past_conversion_limit(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"version": "1", "pieces": [' + "1" * 5000 + "]}")
    assert main(["fibration", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: (document): unreadable JSON: ")


def test_parse_error_on_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"version": "1", "metadata": {"label": "\u00e9"}}'.encode("latin-1"))
    assert main(["homology", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: (document): ") and "is not UTF-8 text" in err


@pytest.mark.parametrize("command", ["fibration", "homology"])
def test_parse_error_on_deep_nesting(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: (document): unreadable JSON: ")


HOMOLOGY_EXAMPLE = Path(__file__).parent / "data" / "homology_example.json"
# parses, but the answers built from it pass Python's 4300-digit str limit
NINES = "9" * 4000


def test_parse_error_when_inclusion_does_not_kill_lambda(capsys, tmp_path):
    doc = json.loads(HOMOLOGY_EXAMPLE.read_text())
    doc["pieces"][1]["inclusion"] = [[1, 1, 0], [0, 0, 1]]  # lambda = e2 maps to (1, 0)
    path = tmp_path / "lambda_survives.json"
    path.write_text(json.dumps(doc))
    assert main(["homology", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: pieces[1]: lambda bounds the fiber")


def test_parse_error_when_a_disk_piece_declares_other_homology(capsys, tmp_path):
    doc = json.loads(HOMOLOGY_EXAMPLE.read_text())
    assert doc["pieces"][0]["kind"] == "torus_times_disk"
    doc["pieces"][0].update(
        h1={"free_rank": 3, "torsion": []}, inclusion=[[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    )
    path = tmp_path / "disk_z3.json"
    path.write_text(json.dumps(doc))
    assert main(["homology", str(path)]) == 2
    assert capsys.readouterr().err == "error: pieces[0]: T^2 x D^2 has H_1 = Z^2\n"


@pytest.mark.parametrize("fmt", ["text", "machine-readable"])
def test_surgery_answer_too_long_to_print(capsys, fmt):
    argv = ["surgery", "1", NINES, "--completion-seed", NINES, "--format", fmt]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: the answer has an integer of more than")


@pytest.mark.parametrize("fmt", ["text", "machine-readable"])
def test_fibration_answer_too_long_to_print(capsys, tmp_path, fmt):
    doc = json.loads(HOMOLOGY_EXAMPLE.read_text())
    n = int(NINES)
    doc["gluing"]["matrix"] = [[1, n, n], [0, 1, n], [0, 0, 1]]
    path = tmp_path / "huge_gluing.json"
    path.write_text(json.dumps(doc))
    assert main(["fibration", str(path), "--format", fmt]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: (document): the answer has an integer of more than")


def test_exit_3_when_homology_disagrees(capsys, monkeypatch):
    # H1 = 0 contradicts the lens classification of every row; both commands
    # reach the homology computation only through enumeration.check
    monkeypatch.setattr(enumeration, "mayer_vietoris_h1", lambda manifold: AbelianGroup(0, ()))
    assert main(["surgery", "2", "3"]) == 3
    assert capsys.readouterr().out.splitlines()[0] == "L(3,2); H1 = 0; chi = 0; INCONSISTENT"
    assert main(["enumerate", "--max-entry", "1", "--format", "machine-readable"]) == 3
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 62 and not any(r["consistent"] for r in rows)


def test_exit_3_when_the_classifier_gets_p_wrong(capsys, monkeypatch):
    # L(5,-2) has the right q, so H_1 = Z + Z/5 agrees; only the closed-form
    # reading of the glued meridian catches the wrong p (rows at N <= 2 all
    # have q <= 2, where no wrong p exists)
    def flip_p(x):
        lens = classify_double_disk_gluing(x)
        return lens_normalize(lens.q, -lens.p)

    monkeypatch.setattr(enumeration, "classify_double_disk_gluing", flip_p)
    assert main(["surgery", "2", "5", "--quiet"]) == 3
    assert capsys.readouterr().out == "L(5,3); H1 = Z + Z/5; chi = 0; INCONSISTENT\n"


def test_enumerate_disks(capsys):
    assert main(["enumerate", "--max-entry", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith("0 inconsistent")
    rows = lines[:-1]
    assert all("lens=L(" in r and "chi=0" in r and r.endswith("ok") for r in rows)


def test_enumerate_machine_readable(capsys):
    assert main(["enumerate", "--max-entry", "1", "--format", "machine-readable"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert all(r["consistent"] for r in rows)
    assert all(r["chi"] == 0 for r in rows)
    assert all(abs(r["det"]) == 1 for r in rows)


def test_enumerate_mixed_pieces(capsys):
    code = main(
        [
            "enumerate",
            "--max-entry",
            "1",
            "--pieces",
            "knot_exterior_product,surface_bundle_over_torus",
            "--format",
            "machine-readable",
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows and all("phi" in r and r["chi"] == 0 for r in rows)


def test_enumerate_usage_errors(capsys):
    assert main(["enumerate", "--max-entry", "9"]) == 1
    assert main(["enumerate", "--max-entry", "1", "--pieces", "torus_times_disk"]) == 1
    assert main(["enumerate", "--max-entry", "1", "--pieces", "a,b"]) == 1
    capsys.readouterr()


def test_check_obstruction(capsys):
    assert main(["check-obstruction", "--chi", "0", "--sigma", "0"]) == 0
    assert capsys.readouterr().out.strip() == "chi = 0; sigma = 0; PASSES"
    assert main(["check-obstruction", "--chi", "2", "--sigma", "0"]) == 0
    assert capsys.readouterr().out.strip() == "chi = 2; sigma = 0; FAILS"
    assert main(["check-obstruction", "--chi", "0", "--sigma", "8"]) == 0
    assert capsys.readouterr().out.strip() == "chi = 0; sigma = 8; FAILS"
    assert main(["check-obstruction", "--chi", "0", "--sigma", "unknown"]) == 0
    assert capsys.readouterr().out.strip() == "chi = 0; sigma = unknown; FAILS (sigma unknown)"
    assert main(["check-obstruction", "--chi", "0", "--sigma", "maybe"]) == 1
    capsys.readouterr()


def test_usage_exit_code_on_unknown_command(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_sample_pieces_cover_all_kinds():
    for kind in PieceKind:
        assert sample_piece(kind).kind is kind


@pytest.mark.parametrize(
    "argv",
    [
        ["surgery", "5", "7", "--format", "machine-readable"],
        ["enumerate", "--max-entry", "1", "--format", "machine-readable"],
    ],
)
def test_optimized_interpreter_prints_the_same_bytes(argv):
    plain = run_python("-m", "torusglue", *argv)
    optimized = run_python("-m", "torusglue", *argv, optimize=True)
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
        plain.returncode,
        plain.stdout,
        plain.stderr,
    )
