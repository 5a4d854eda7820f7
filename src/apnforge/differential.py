"""Differential-spectrum verification for hexanomial instances.

F is quadratic, so each derivative is affine with linear part B(a, .),
B(a, y) = F(a + y) + F(a) + F(y) + F(0) being F_2-bilinear: its nonzero
fibers are cosets of one kernel, whose size fixes the fiber histogram.
|ker| at every shift a != 0 is 2^(w - rank), with the F_2-rank of the w
images B(a, X^i) from one elimination over all shifts at once, on uint64
bit-planes of 64 shifts a word (:mod:`apnforge.bitplanes`), O(w^3 2^w / 64)
word operations.  :func:`derivative_spectrum` is the whole check; the CLI,
:func:`is_t_to_one` and :func:`ddt` all take their verdicts from it.  In order:

* the kernel route builds the images' planes from the w^2 values B(X^j, X^i)
  of the linearized form in :mod:`apnforge.hexanomial`, never reading F's table;
* the table of F (its formula on the field's array view) must match the scalar
  F at every x of weight <= 2, the points that fix a quadratic map (one call,
  the scalar Field's shift-and-reduce on an int64 array of 1 + w(w+1)/2 points);
* the definition route reads the images off that table, packed into planes,
  and they must agree with the kernel route's image by image at every shift;
* the spot check holds B's coefficient expression, which the kernel route
  evaluates only at basis pairs, to B read off the certified table at seeded
  (a, y) pairs; the table is then freed;
* one elimination ranks the planes.

The kernel route's images are linear in a, so their agreement at every
shift makes every derivative of the table affine: that is the certificate
that the table is quadratic, and it makes the two routes' ranks equal by
construction.  A disagreement raises :class:`CrossCheckError` instead of
a verdict; the test suite holds each route to its own oracle as well.
A map is 2^k-to-one exactly when every kernel has size 2^k; APN is k = 1.
Spectra are capped (w <= 16 by default, and always on the command line);
the O(4^w) difference distribution table is capped tighter (default w <= 12)
and written a block of rows at a time from the certified spectrum: row a is
one coset of Im B(a, .), a 0/1 mask per block (:func:`_coset_masks`), which
:func:`ddt_blocks` turns into int32 counts and :func:`ddt_csv_blocks` straight
into the CSV bytes.  The count by the definition lives in the test oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import bitplanes, hexanomial
from .field import SizeLimitError
from .hexanomial import BCParams, eval_hexanomial

SPECTRUM_DEGREE_CAP = 16
DDT_DEGREE_CAP = 12
_DDT_BLOCK_CELLS = 1 << 18  # cells per streamed block of DDT rows: 64 rows at w = 12
SPOT_CHECK_SAMPLES = 1000


class CrossCheckError(RuntimeError):
    """The routes disagree, or F is not quadratic: an internal bug, not a verdict."""


@dataclass(frozen=True, eq=False)  # eq would compare arrays, whose truth value is ambiguous
class DerivativeSpectrum:
    """kernels[a] = |ker| of the derivative at shift a (index 0 unused); the bit-planes of
    each shift's echelon basis of Im B(a, .) and of offsets D_a(0) = F(a) + F(0) give the
    coset the DDT's row a is supported on."""

    kernels: np.ndarray
    basis: np.ndarray
    offsets: np.ndarray

    def histogram(self, a: int) -> dict[int, int]:
        """{fiber size: #b} for x -> F(x) + F(x + a), a in 1..2^w - 1."""
        if not 0 < a < len(self.kernels):
            raise ValueError(f"shift a={a} outside 1..{len(self.kernels) - 1}")
        return _coset_histogram(len(self.kernels), int(self.kernels[a]))

    @property
    def max_count(self) -> int:
        """The largest fiber over all shifts: a DDT's largest off-zero entry."""
        return int(self.kernels[1:].max())

    def _size_counts(self) -> list[tuple[int, int]]:
        """(kernel size, #shifts a != 0 with it), ascending, counted by exponent since sizes
        are powers of two (np.unique would import numpy.ma, ~18 ms per process)."""
        exponents = np.frexp(self.kernels[1:])[1] - 1
        return [(1 << e, n) for e, n in enumerate(np.bincount(exponents).tolist()) if n]

    def uniform_fiber_size(self) -> int | None:
        """The one fiber size attained at every shift, or None when sizes are mixed."""
        sizes = self._size_counts()
        return sizes[0][0] if len(sizes) == 1 else None

    def collapsed_summary(self) -> list[dict]:
        """Histogram shapes grouped over a: few lines even for big sweeps."""
        size = len(self.kernels)
        groups = self._size_counts()
        shapes = sorted((sorted(_coset_histogram(size, k).items()), n) for k, n in groups)
        return [{"histogram": {str(t): c for t, c in shape}, "count_a": n} for shape, n in shapes]


def value_table(p: BCParams) -> np.ndarray:
    """F at every element, canonical order, int32: one evaluation of F's formula on array ops."""
    f = p.field
    return hexanomial.hexanomial_form(f.array_ops, p, np.arange(f.size, dtype=np.int32))


def check_degree(what: str, w: int, degree_cap: int) -> None:
    """Refuse a job over F_{2^w} whose cap is below w."""
    if w > degree_cap:
        raise SizeLimitError(f"{what} for w={w} exceeds cap {degree_cap}")


def _check_table(p: BCParams, ftab: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """The planes of D_a(0) = F(a) + F(0) at every shift a, read off F's value table ftab
    once it has equalled the scalar F at every x of weight <= 2 and given
    F(a + X^i) + F(a) + F(X^i) + F(0) = planes[i] at every shift a and basis index i;
    else CrossCheckError at the first bad x (0, then X^i + X^j for i <= j in order) or
    the least bad a.  The images are linear in a, so agreement makes every D_{X^i} of the
    table affine: it is quadratic, with the linearized bilinear form.  A quadratic map is
    fixed by its values at weight <= 2, so the table is the scalar F everywhere.  The
    scalar Field evaluates F at those 1 + w(w+1)/2 points in one call, by shift-and-reduce
    on an int64 array; the table's array view multiplies by gathers, so the comparison
    holds one arithmetic to the other."""
    w = p.field.w
    xs = np.array([0] + [1 << i | 1 << j for i in range(w) for j in range(i, w)])
    bad = np.flatnonzero(ftab[xs] != eval_hexanomial(p, xs))
    if bad.size:
        raise CrossCheckError(f"value table disagrees with F at x={int(xs[bad[0]]):#x}")
    table = bitplanes.pack(ftab, w)
    offsets = table ^ bitplanes.constant(ftab[0], w)
    corners = bitplanes.constant(ftab[1 << np.arange(w)], w)  # F(X^i) at every shift
    for i, image in enumerate(planes):
        # F(a + X^i) + F(a) + F(0) + F(X^i) + B(a, X^i), every bit of every shift a
        bad = bitplanes.flip(table, i) ^ offsets ^ corners[i] ^ image
        bad = np.bitwise_or.reduce(bad, axis=0) & bitplanes.valid(w)
        if bad.any():
            h = int(np.flatnonzero(bad)[0])
            l = (int(bad[h]) & -int(bad[h])).bit_length() - 1
            a = h << 6 | l
            route = sum((int(word) >> l & 1) << b for b, word in enumerate(image[:, h]))
            raise CrossCheckError(
                f"shift a={a:#x}, basis X^{i}: value table"
                f" {int(ftab[a ^ 1 << i] ^ ftab[a] ^ ftab[1 << i] ^ ftab[0]):#x}"
                f" vs kernel route {route:#x}"
            )
    return offsets


def derivative_spectrum(
    p: BCParams, degree_cap: int = SPECTRUM_DEGREE_CAP, seed: int = 0
) -> DerivativeSpectrum:
    """The whole exact check, in the order the module docstring lists: the spectrum of
    every a != 0 from the kernel route's planes, once F's certified value table agrees
    with them (:func:`_check_table`) and the spot check, seeded by seed, has passed.
    The cap is checked before any work; a failed check raises :class:`CrossCheckError`."""
    check_degree("spectrum", p.field.w, degree_cap)
    planes = bilinear_planes(p)
    ftab = value_table(p)
    offsets = _check_table(p, ftab, planes)
    _spot_check(p, seed, ftab)
    del ftab
    basis = bitplanes.echelon(planes)
    return DerivativeSpectrum(_kernels(basis), basis, offsets)


def _kernels(basis: np.ndarray) -> np.ndarray:
    """2^(w - rank) at every shift from its echelon basis, int64, index 0 unused."""
    kernels = np.left_shift(1, len(basis) - bitplanes.ranks(basis), dtype=np.int64)
    kernels[0] = 0
    return kernels


def bilinear_planes(p: BCParams) -> np.ndarray:
    """planes[i], the bit-planes of B(a, X^i) at every a, without F's table: B is linear in
    a, so a's images XOR the rows B(X^j, X^.) over the bits j of a, one doubling per bit,
    of the values of a < 64 (word 0), then of whole words."""
    w, ops = p.field.w, p.field.array_ops
    xj, xi = 1 << np.indices((w, w), dtype=np.int64)  # X^j down the rows, X^i across
    tensor = hexanomial.collapsed_form(ops, p, hexanomial.bilinear_coeffs(ops, p, xj), xi)
    low = np.zeros((w, min(64, 1 << w)), dtype=np.int64)
    for j, row in enumerate(tensor[:6]):  # row j: B(X^j, X^i) for each i
        np.bitwise_xor(low[:, : 1 << j], row[:, None], out=low[:, 1 << j : 2 << j])
    planes = np.empty((w, w, max(1, (1 << w) >> 6)), dtype=np.uint64)
    planes[..., :1] = bitplanes.pack(low, w)  # word 0
    for j, row in enumerate(bitplanes.constant(tensor[6:], w)):
        np.bitwise_xor(planes[..., : 1 << j], row, out=planes[..., 1 << j : 2 << j])
    return planes


def _coset_histogram(size: int, kernel: int) -> dict[int, int]:
    """The fiber histogram an affine map on `size` points with the given kernel size must have."""
    attained = size // kernel
    hist = {kernel: attained}
    if attained < size:
        hist[0] = size - attained
    return hist


def cross_check_spectrum(p: BCParams, spec: DerivativeSpectrum) -> None:
    """Raise CrossCheckError unless spec's kernels equal those of the kernel route's planes,
    ranked again, at every shift: a per-shift reference for tests and the benchmark
    replay, since :func:`derivative_spectrum` compares the images themselves."""
    ks = _kernels(bitplanes.echelon(bilinear_planes(p)))
    bad = np.flatnonzero(spec.kernels != ks)
    if bad.size:
        a = int(bad[0])
        raise CrossCheckError(
            f"shift a={a:#x}: definition route |ker| {int(spec.kernels[a])}"
            f" vs kernel route {int(ks[a])}"
        )


def _spot_check(p: BCParams, seed: int, ftab: np.ndarray) -> None:
    """Raise CrossCheckError unless B(a, y) read off F's certified value table ftab,
    F(a + y) + F(a) + F(y) + F(0), equals B's coefficient expression, which the kernel
    route evaluates only at basis pairs, on SPOT_CHECK_SAMPLES seeded (a, y) pairs,
    reduced from 32-bit words of one draw (a bias below 2^-8)."""
    size = p.field.size
    bits = random.Random(seed).getrandbits(64 * SPOT_CHECK_SAMPLES)
    words = np.frombuffer(bits.to_bytes(8 * SPOT_CHECK_SAMPLES, "little"), dtype="<u4")
    a, y = words.astype(np.int64).reshape(-1, 2).T
    a, y = a % (size - 1) + 1, y % size
    ops = p.field.array_ops
    linear = hexanomial.collapsed_form(ops, p, hexanomial.bilinear_coeffs(ops, p, a), y)
    bad = np.flatnonzero(ftab[a ^ y] ^ ftab[a] ^ ftab[y] ^ ftab[0] != linear)
    if bad.size:
        i = int(bad[0])
        raise CrossCheckError(
            f"B's table and coefficient forms disagree at a={int(a[i]):#x}, y={int(y[i]):#x}"
        )


def is_t_to_one(p: BCParams, t: int) -> bool:
    """Every nonzero-shift fiber has size exactly t (a power of two), by the whole check."""
    if t < 1 or t & (t - 1):
        raise ValueError(f"fiber size must be a power of two, got {t}")
    return derivative_spectrum(p).uniform_fiber_size() == t


def is_apn(p: BCParams) -> bool:
    """Almost perfect nonlinear: every derivative is 2-to-one."""
    return is_t_to_one(p, 2)


def _coset_masks(spec: DerivativeSpectrum):
    """(lo, on_coset) for DDT rows a ascending in blocks of ~_DDT_BLOCK_CELLS cells:
    on_coset[a - lo, b] is 1 where b is in the coset D_a(0) + Im B(a, .), the support of
    row a, and 0 elsewhere, '<u2'.  L_a, the reduction by shift a's echelon basis, is
    F_2-linear with kernel Im B(a, .), so L_a(b + D_a(0)) is built from L_a(D_a(0)) and
    the w residues L_a(X^i) by one doubling per bit of b, and b is on the coset where it
    is 0.  Row 0's basis is empty and D_0(0) = 0: its mask is b == 0.  The residues are
    taken now, so the spectrum may go; the mask is scratch shared by every block, valid
    only until the next is requested, and the caller may write over it."""
    w, size = len(spec.basis), len(spec.kernels)
    check_degree("DDT stream", w, 16)  # the residues are '<u2'
    vectors = np.empty((w + 1, *spec.offsets.shape), dtype=np.uint64)
    vectors[0] = spec.offsets  # D_a(0), then X^0..X^(w-1) at every shift
    vectors[1:] = bitplanes.constant(1 << np.arange(w), w)
    bitplanes.reduce(vectors, spec.basis)
    residues = bitplanes.unpack(vectors, "<u2")
    # the first 2^h cells of every row, doubled once down whole columns: per block, those
    # narrow doublings would cost a call each for a few cells a row
    h = min(w, 4)
    head = np.empty((1 << h, size), residues.dtype)
    head[0] = residues[0]
    for i, residue in enumerate(residues[1 : h + 1]):
        np.bitwise_xor(head[: 1 << i], residue, out=head[1 << i : 2 << i])
    # scratch shared by every block: with fresh buffers the allocator can hand their pages
    # back and fault them in again block after block (about 53,000 faults at w = 12)
    all_cells = np.empty((max(1, _DDT_BLOCK_CELLS // size), size), residues.dtype)

    def masks():
        for lo in range(0, size, len(all_cells)):
            cells = all_cells[: size - lo]
            cells[:, : 1 << h] = head[:, lo : lo + len(cells)].T
            for i, residue in enumerate(residues[h + 1 :, lo : lo + len(cells), None], h):
                np.bitwise_xor(cells[:, : 1 << i], residue, out=cells[:, 1 << i : 2 << i])
            yield lo, np.equal(cells, 0, out=cells, casting="unsafe")

    return masks()


def ddt_blocks(spec: DerivativeSpectrum):
    """DDT rows a ascending in int32 blocks of ~_DDT_BLOCK_CELLS cells: row a is |ker| on
    the coset D_a(0) + Im B(a, .) and 0 elsewhere (:func:`_coset_masks`); row 0 is 2^w."""
    counts = spec.kernels.astype(np.int32)
    counts[0] = len(counts)
    return (mask * counts[lo : lo + len(mask), None] for lo, mask in _coset_masks(spec))


def ddt_csv_blocks(spec: DerivativeSpectrum):
    """The bytes of :func:`ddt_to_csv` for the DDT of spec, a block of rows at a time, each
    valid only until the next is requested.  Row 0 is its literal line "2^w,0,...,0".  A
    block whose counts are all below 10 (every 2-, 4- and 8-to-one row) is written over
    its mask in place: the mask times the counts are the digits, and OR-ing in "0," makes
    each cell a little-endian '<u2' glyph, the digit and a comma; the last column's comma
    is a newline.  Other blocks take :func:`csv_block`."""
    kernels, masks = spec.kernels, _coset_masks(spec)
    size = len(kernels)

    def blocks():
        yield b"%d" % size + b",0" * (size - 1) + b"\n"
        for lo, mask in masks:
            rows = kernels[lo : lo + len(mask), None]
            if lo == 0:  # row 0 went out as its literal line
                rows, mask = rows[1:], mask[1:]
            if not len(rows):
                continue
            if rows.max() >= 10:
                yield csv_block(mask * rows)
                continue
            glyphs = np.multiply(mask, rows.astype("<u2"), out=mask)
            glyphs |= ord("0") | ord(",") << 8
            text = glyphs.view(np.uint8)
            text[:, -1] = ord("\n")  # the high byte of the last cell: its comma
            yield text.reshape(-1).data

    return blocks()


def ddt(p: BCParams, degree_cap: int = DDT_DEGREE_CAP) -> np.ndarray:
    """Full difference distribution table, int32; row a=0 is the conventional [2^w, 0, ...]."""
    check_degree("ddt", p.field.w, degree_cap)  # before the table exists
    table = np.empty((p.field.size, p.field.size), dtype=np.int32)
    lo = 0
    for block in ddt_blocks(derivative_spectrum(p)):
        table[lo : lo + len(block)] = block
        lo += len(block)
    return table


def csv_block(rows: np.ndarray) -> bytes:
    """CSV lines of a block of rows: each count's glyph ("v," or "v\\n" in the last column),
    NUL-padded to the block's widest value, gathered at once and stripped of its NULs
    (there are none when every count is below 10)."""
    top = int(rows.max())
    glyphs = np.char.add(np.arange(top + 1).astype(f"S{len(str(top))}"), [[b","], [b"\n"]])
    cells = glyphs[0].take(rows)  # take, not [], gathers fixed-width bytes several times faster
    cells[:, -1] = glyphs[1].take(rows[:, -1])
    return cells.tobytes() if top < 10 else cells.tobytes().translate(None, b"\0")


def ddt_to_csv(table: np.ndarray) -> str:
    """Rows a ascending, columns b ascending, plain integers: the bytes ``--ddt-out`` writes."""
    step = max(1, _DDT_BLOCK_CELLS // table.shape[1])
    return b"".join(csv_block(table[lo : lo + step]) for lo in range(0, len(table), step)).decode()


def spectrum_report(p: BCParams, spec: DerivativeSpectrum) -> dict:
    """Deterministic JSON-ready summary of one verification run."""
    uniform = spec.uniform_fiber_size()
    return {
        "schema": 1,
        "kind": "derivative-spectrum",
        "params": p.to_dict(),
        "per_a_histogram_summary": spec.collapsed_summary(),
        "max_count": spec.max_count,
        "verdicts": {"is_apn": uniform == 2, "is_2k_to_one": uniform == p.u, "k": p.k},
    }
