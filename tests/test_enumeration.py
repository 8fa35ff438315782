"""The bounded-entry gluing generator against the brute-force scan it replaced.

The reference below is the original implementation: scan every entry tuple
in [-N, N]^9 in lexicographic order, keep the unimodular ones, and remember
every orbit member of each kept matrix so later members are skipped.  The
generator must yield exactly the same matrices in exactly the same order.
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


def test_least_members_lead_every_row_and_column_with_a_negative_entry():
    # the first nonzero entry is negative; the first entry itself may be 0
    starts_with_zero = 0
    for x in enumerate_gluings(1, *SURGERY_DISK_PAIR):
        lines = x.f.m.to_rows() + x.f.m.transpose().to_rows()
        assert all(next(v for v in line if v) < 0 for line in lines)
        starts_with_zero += any(line[0] == 0 for line in lines)
    assert starts_with_zero == 55


def test_pieces_for_kinds():
    disk = PieceKind.TORUS_TIMES_DISK
    assert pieces_for_kinds(disk, disk) is SURGERY_DISK_PAIR
    for k1, k2 in itertools.product(PieceKind, repeat=2):
        if (k1, k2) != (disk, disk):
            assert pieces_for_kinds(k1, k2) == (sample_piece(k1), sample_piece(k2))
