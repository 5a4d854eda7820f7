"""w-bit vectors at every shift a < 2^w as uint64 bit-planes: bit l of word h
of plane b is bit b of the vector at shift 64h + l (one word, its high bits 0,
below w = 6), so one numpy operation acts on 64 shifts per word.  Packing,
unpacking and ranking take the number of shifts from the last axis, so they act
on a block of words as on the whole range: w is the bit count only.
"""

from __future__ import annotations

import numpy as np

ECHELON_WORDS = 256  # words of shifts per elimination chunk: 2^14 shifts, cache-sized temporaries
# mask i: the bits l of a word whose bit i is 0, for flip(planes, i < 6)
_STAY = np.array(
    [0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
     0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF],
    dtype=np.uint64,
)


def valid(w: int) -> np.uint64:
    """The bits of a word that stand for shifts below 2^w."""
    return np.uint64((1 << (1 << min(w, 6))) - 1)


def constant(values, w: int) -> np.ndarray:
    """(..., w, 1) planes of values that are the same at every shift."""
    bits = np.asarray(values, dtype=np.int64)[..., None, None] >> np.arange(w)[:, None] & 1
    return bits.astype(np.uint64) * valid(w)


def _shifts(words: int, w: int) -> int:
    """The shifts that `words` words hold: 64 each, or the 2^w of one partly filled word."""
    return min(words << 6, 1 << w)


def pack(values, w: int) -> np.ndarray:
    """The (..., w, words) planes of values (..., n) below 2^w, n <= 2^w: ceil(n / 64)
    words, at least one, the bits past shift n - 1 0."""
    values = np.ascontiguousarray(values, dtype="<u4")
    words = max(1, -(-values.shape[-1] // 64))
    planes = np.zeros((*values.shape[:-1], w, 8 * words), dtype=np.uint8)
    columns = np.moveaxis(values[..., None].view(np.uint8), -1, 0)[: (w + 7) // 8]
    columns = np.ascontiguousarray(columns)  # columns[k]: byte k of every value
    for b in range(w):
        packed = np.packbits(columns[b >> 3] & 1 << (b & 7), axis=-1, bitorder="little")
        planes[..., b, : packed.shape[-1]] = packed
    return planes.view("<u8")


def unpack(planes: np.ndarray, dtype=np.int32) -> np.ndarray:
    """The (..., shifts) values of (..., w, words) planes: the inverse of :func:`pack`."""
    w, count = planes.shape[-2], _shifts(planes.shape[-1], planes.shape[-2])
    values = np.zeros((*planes.shape[:-2], count), dtype=dtype)
    for b in range(w):  # one plane at a time: no (..., w, shifts) temporary
        bits = np.unpackbits(
            np.ascontiguousarray(planes[..., b, :]).view(np.uint8), axis=-1, count=count,
            bitorder="little",
        )
        values |= np.left_shift(bits, b, dtype=dtype)
    return values


def flip(planes: np.ndarray, i: int) -> np.ndarray:
    """The planes of v(a + X^i) from those of v(a): words swap in blocks for i >= 6, bits
    inside each word (a delta swap) for i < 6."""
    if i >= 6:
        half = 1 << (i - 6)
        return planes.reshape(*planes.shape[:-1], -1, 2, half)[..., ::-1, :].reshape(planes.shape)
    stay, step = _STAY[i], np.uint64(1 << i)
    return (planes >> step) & stay | (planes & stay) << step


def echelon(vectors: np.ndarray) -> np.ndarray:
    """Echelon basis planes of the span of w vectors (w, w, words) at every shift:
    basis[b] leads at bit b, or is 0 where no pivot is, so basis[b, b] masks the pivots.
    Top-down, the first vector with bit b is XORed into every vector with it, touching
    only planes <= b, in chunks of ECHELON_WORDS words.  O(w^3 2^w / 64) word ops."""
    w = len(vectors)
    basis = np.zeros_like(vectors)
    for lo in range(0, vectors.shape[-1], ECHELON_WORDS):
        chunk = slice(lo, lo + ECHELON_WORDS)
        rows = vectors[..., chunk].copy()
        for b in reversed(range(w)):
            column = rows[:, b]
            first = np.bitwise_or.accumulate(column, axis=0)
            first[1:] ^= first[:-1]  # the first vector with bit b, at each shift
            pivot = np.bitwise_or.reduce(rows[:, : b + 1] & first[:, None], axis=0)
            basis[b, : b + 1, chunk] = pivot
            rows[:, : b + 1] ^= pivot & column[:, None]
    return basis


def ranks(basis: np.ndarray) -> np.ndarray:
    """The rank at every shift of the basis's words, uint8: its number of pivots."""
    w, count = len(basis), _shifts(basis.shape[-1], len(basis))
    rank = np.zeros(count, dtype=np.uint8)
    for b in range(w):
        rank += np.unpackbits(basis[b, b].view(np.uint8), count=count, bitorder="little")
    return rank


def reduce(vectors: np.ndarray, basis: np.ndarray) -> None:
    """Reduce (k, w, words) planes in place by the :func:`echelon` basis of each shift,
    top-down: a vector in its span becomes 0."""
    for b in reversed(range(len(basis))):
        vectors[:, : b + 1] ^= basis[b, : b + 1] & vectors[:, b, None]
