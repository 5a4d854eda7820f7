"""Bit-planes: the layout of pack, its inverse, the X^i flip and constant planes, against
int references at every w from 2 (a partly filled word) to 16."""

import numpy as np
import pytest

import oracle
from apnforge import bitplanes


@pytest.mark.parametrize("w", range(2, 17))
def test_pack_unpack_and_flip_against_int_references(w):
    """Bit l of word h of plane b is bit b of the value at 64h + l, read off bit by bit;
    unpacking inverts packing, also on stacked planes; the X^i flip is the value at
    a + X^i; and no plane sets a bit past shift 2^w - 1, also where a word is partly
    filled (w < 6) or the planes are those of a constant.  Packing stacked values, or
    only the first 64, gives the same words."""
    size, valid = 1 << w, bitplanes.valid(w)
    values = np.random.default_rng(w).integers(0, size, size=size, dtype=np.int32)
    planes = bitplanes.pack(values, w)
    assert planes.dtype == np.uint64 and planes.shape == (w, max(1, size >> 6))
    shifts = np.arange(size)
    bits = planes[:, shifts >> 6] >> (shifts & 63).astype(np.uint64) & np.uint64(1)
    assert np.array_equal(bits, values >> np.arange(w)[:, None] & 1)
    assert not (planes & ~valid).any()
    assert np.array_equal(bitplanes.unpack(planes), values)
    for i in range(w):
        flipped = bitplanes.flip(planes, i)
        assert np.array_equal(bitplanes.unpack(flipped), values[shifts ^ 1 << i]), i
        assert not (flipped & ~valid).any(), i
    v = int(values[-1])
    constant = np.broadcast_to(bitplanes.constant(v, w), planes.shape)
    assert np.array_equal(bitplanes.pack(np.full(size, v), w), constant)
    stacked = np.stack([planes, bitplanes.flip(planes, w - 1)])
    assert np.array_equal(bitplanes.unpack(stacked), [values, values[shifts ^ 1 << w - 1]])
    assert np.array_equal(bitplanes.pack([values, values[shifts ^ 1 << w - 1]], w), stacked)
    head = bitplanes.pack(values[:64], w)  # the shifts below 64 alone: word 0
    assert np.array_equal(head[:, 0], planes[:, 0]) and not head[:, 1:].any()


@pytest.mark.parametrize("w", [2, 5, 6, 7, 9, 12])
def test_a_block_of_words_packs_unpacks_and_ranks_as_its_slice_of_the_whole_range(w):
    """pack takes the number of shifts from the values' last axis, unpack and eliminate
    from the planes' words: the shifts of words lo..hi-1 pack to those words of the whole
    range's planes, and those words unpack and rank to the same slice of the whole
    range's values and ranks, on stacked values too; below w = 6 the one word holds 2^w
    shifts.  Eliminating the block alone gives the same ranks and basis words."""
    size, rng = 1 << w, np.random.default_rng(w)
    values = rng.integers(0, size, size=(2, size), dtype=np.int32)
    planes = bitplanes.pack(values, w)
    # sparse vectors, so that ranks below w are common
    vectors = bitplanes.pack(np.bitwise_and.reduce(rng.integers(0, size, (3, w, size)), 0), w)
    basis = oracle.echelon(vectors)
    rank = bitplanes.eliminate(vectors.copy())
    assert len(set(rank.tolist())) > 1
    words = planes.shape[-1]
    for lo, hi in sorted({(0, 1), (1, min(3, words)), (words - 1, words), (0, words)}):
        if lo >= hi:
            continue
        shifts = slice(lo << 6, min(hi << 6, size))
        assert np.array_equal(bitplanes.pack(values[:, shifts], w), planes[..., lo:hi])
        assert np.array_equal(bitplanes.unpack(planes[..., lo:hi]), values[:, shifts])
        block_basis = np.zeros_like(basis[..., lo:hi])
        block_rank = bitplanes.eliminate(vectors[..., lo:hi].copy(), block_basis)
        assert np.array_equal(block_basis, basis[..., lo:hi])
        assert np.array_equal(block_rank, rank[shifts]), (lo, hi)
