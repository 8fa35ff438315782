"""The bounded-entry gluing generator against the brute-force scan it replaced.

The reference below is the original implementation: scan every entry tuple
in [-N, N]^9 in lexicographic order, keep the unimodular ones, and remember
every orbit member of each kept matrix so later members are skipped.  The
generator must yield exactly the same matrices in exactly the same order.
Above N = 1, where the scan is too slow, recorded digests pin the sequence,
and an orbit count checks it independently: the orbits of the yielded
matrices must together hold every unimodular matrix of the box.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from torusglue.enumeration import enumerate_gluings, pieces_for_kinds
from torusglue.pieces import PieceKind, sample_piece, torus_times_disk
from torusglue.surgery import SURGERY_DISK_PAIR

LAMBDA_PAIRS = list(itertools.product((1, 2, 3), repeat=2))

# SHA-256 of the N = 2 entry sequences, computed with the brute-force scan.
DIGESTS_AT_2 = {
    (1, 1): "4bbcf97330d40d16536159b4df2a8f452077b98f026184c40cd2a84555eb6da8",
    (1, 2): "f847b799a5faeb5c45c4104b91f345e44c6a538eaa326a427120f948e96b12fc",
    (1, 3): "15ad51e6ea014a4b91fa481cc631abcebc9745123784ff2a46582a3e5ed13d2f",
    (2, 1): "768df6b8cee2383b122be2e46305d0ccd35b82da974bb43cf66204ef8f29a08d",
    (2, 2): "e93b6ae598da7e692f568e4f9e6d66e761acaa1235df841e29104cccdd508a3e",
    (2, 3): "27c9fd517e7f8cb7a610958c0e0e325c9cb4a8fd9348620275c3c2b98118f982",
    (3, 1): "a694cc56a69aa5dcc22ad8584d4a6e1cd156ac241efe74862f0ffdbf196ce7f5",
    (3, 2): "db9ffd7e864a9113d2506bda330b69c0edd77d635eca7fbad747151ee015bbf5",
    (3, 3): "931d5463501453e9eabad712e6b989b8def78d7336f826716205cf69994a8d3d",
}

# SHA-256 of the N = 3 entry sequences (10,055 matrices each), recorded with
# the generator before its first-row and second-row prefilters existed.
DIGESTS_AT_3 = {
    (1, 1): "ec328a019ad300fec9f4e33dd49600e0e208a3e1679bd96c6c89e879d1e27ee0",
    (1, 2): "40c32f503f0b826ea0ef0068a13a06e40caeb02f8fbec2fe3412b4341e8ae961",
    (1, 3): "7dbb5934ce3d54df1389978aaf4d7687e00f2d03e098d8588e98098db56f92b8",
    (2, 1): "e9d1fb82fc818bea4d44143fcd3486e3a6c107478d4b7ac97c761718d5a7782c",
    (2, 2): "8fa8adf6ec7f4f2c57480e74e40c032edabbfce38a913b2773c73955a6b98cae",
    (2, 3): "b0b1717d1b6ae67eb560624fa295bf0be1701b8882cfe3779920564b9213f7c0",
    (3, 1): "0baf6dbcd63dcfb0a5a8f0992db123abfae50633faa27666fb8ff1b24343eac1",
    (3, 2): "42c25c97d83048960be65a40fbc1d53062e0939d4caaa85dcf2d356c2346e6db",
    (3, 3): "301f1bed6f7c5a279aeeace14c710729c16cc30879027c351e00fb3dcfbf40dd",
}

# SHA-256 of the N = 4 entry sequence (40,647 matrices) for the lambda-index
# pair both perfbench enumerate inputs use, recorded with the generator that
# still listed all 16 signed permutations of each framing.
DIGESTS_AT_4 = {
    (2, 1): "acfd6f4d33666a3745088ecbad233517398e254768a5ef657cf234fd582e5ccf",
}


def _reference_signed_permutations_fixing(index):
    others = [i for i in range(3) if i != index]
    out = []
    for swapped in (False, True):
        perm = list(range(3))
        if swapped:
            perm[others[0]], perm[others[1]] = perm[others[1]], perm[others[0]]
        for signs in itertools.product((1, -1), repeat=3):
            out.append((tuple(perm), signs))
    return out


def _reference_orbit(entries, left, right):
    rows = [entries[0:3], entries[3:6], entries[6:9]]
    for perm_l, signs_l in left:
        permuted = [tuple(signs_l[i] * x for x in rows[perm_l[i]]) for i in range(3)]
        for perm_r, signs_r in right:
            yield tuple(
                signs_r[j] * permuted[i][perm_r[j]] for i in range(3) for j in range(3)
            )


def _reference_det3(e):
    return (
        e[0] * (e[4] * e[8] - e[5] * e[7])
        - e[1] * (e[3] * e[8] - e[5] * e[6])
        + e[2] * (e[3] * e[7] - e[4] * e[6])
    )


def _reference_gluing_entries(max_entry, left_index, right_index):
    left = _reference_signed_permutations_fixing(left_index - 1)
    right = _reference_signed_permutations_fixing(right_index - 1)
    rng = range(-max_entry, max_entry + 1)
    seen = set()
    for entries in itertools.product(rng, repeat=9):
        if entries in seen or abs(_reference_det3(entries)) != 1:
            continue
        seen.update(_reference_orbit(entries, left, right))
        yield entries


def _generated_entries(max_entry, left_index, right_index):
    w = torus_times_disk(lambda_index=left_index)
    w_prime = torus_times_disk(lambda_index=right_index)
    return [x.f.m.entries for x in enumerate_gluings(max_entry, w, w_prime)]


def _unimodular_count(max_entry):
    """The number of unimodular 3x3 matrices with entries in [-N, N], with
    no symmetry logic: for each pair of lower rows with cofactor vector c,
    the first rows r1 of the box with r1 . c = +-1.  That number depends
    only on the sorted |c|, since the box is symmetric."""
    box = list(itertools.product(range(-max_entry, max_entry + 1), repeat=3))
    completions = {}
    total = 0
    for (a1, a2, a3), (b1, b2, b3) in itertools.product(box, repeat=2):
        c = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        key = tuple(sorted(map(abs, c)))
        if key not in completions:
            completions[key] = sum(
                abs(r[0] * key[0] + r[1] * key[1] + r[2] * key[2]) == 1 for r in box
            )
        total += completions[key]
    return total


def _digest(sequence):
    h = hashlib.sha256()
    for entries in sequence:
        h.update((",".join(str(x) for x in entries) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("left_index,right_index", LAMBDA_PAIRS)
def test_same_sequence_as_reference_scan_at_1(left_index, right_index):
    expected = list(_reference_gluing_entries(1, left_index, right_index))
    assert _generated_entries(1, left_index, right_index) == expected


@pytest.mark.parametrize("left_index,right_index", LAMBDA_PAIRS)
def test_sequence_digest_at_2(left_index, right_index):
    sequence = _generated_entries(2, left_index, right_index)
    assert _digest(sequence) == DIGESTS_AT_2[left_index, right_index]


@pytest.mark.parametrize("left_index,right_index", LAMBDA_PAIRS)
def test_sequence_digest_at_3(left_index, right_index):
    sequence = _generated_entries(3, left_index, right_index)
    assert _digest(sequence) == DIGESTS_AT_3[left_index, right_index]


@pytest.mark.parametrize("left_index,right_index", DIGESTS_AT_4)
def test_sequence_digest_at_4(left_index, right_index):
    sequence = _generated_entries(4, left_index, right_index)
    assert len(sequence) == 40_647
    assert _digest(sequence) == DIGESTS_AT_4[left_index, right_index]


UNIMODULAR_COUNTS = {1: 6_960, 2: 135_408}


@pytest.mark.parametrize("max_entry", UNIMODULAR_COUNTS)
def test_unimodular_count(max_entry):
    assert _unimodular_count(max_entry) == UNIMODULAR_COUNTS[max_entry]


@pytest.mark.parametrize(
    "max_entry,left_index,right_index",
    [(1, *pair) for pair in LAMBDA_PAIRS] + [(2, 2, 1), (2, 3, 2), (2, 1, 1)],
)
def test_orbits_of_the_representatives_cover_every_unimodular_matrix(
    max_entry, left_index, right_index
):
    # orbit-stabilizer: the representatives' orbits partition the box's
    # unimodular matrices, so a dropped or doubled representative shows
    left = _reference_signed_permutations_fixing(left_index - 1)
    right = _reference_signed_permutations_fixing(right_index - 1)
    sizes = [
        len(set(_reference_orbit(entries, left, right)))
        for entries in _generated_entries(max_entry, left_index, right_index)
    ]
    assert sum(sizes) == UNIMODULAR_COUNTS[max_entry]


def test_least_members_lead_every_row_and_column_with_a_negative_entry():
    # the first nonzero entry is negative; the first entry itself may be 0
    starts_with_zero = 0
    for x in enumerate_gluings(1, *SURGERY_DISK_PAIR):
        rows = x.f.m.to_rows()
        lines = rows + tuple(zip(*rows))
        assert all(next(v for v in line if v) < 0 for line in lines)
        starts_with_zero += any(line[0] == 0 for line in lines)
    assert starts_with_zero == 55


def test_pieces_for_kinds():
    disk = PieceKind.TORUS_TIMES_DISK
    assert pieces_for_kinds(disk, disk) is SURGERY_DISK_PAIR
    for k1, k2 in itertools.product(PieceKind, repeat=2):
        if (k1, k2) != (disk, disk):
            assert pieces_for_kinds(k1, k2) == (sample_piece(k1), sample_piece(k2))
