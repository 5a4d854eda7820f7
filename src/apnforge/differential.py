"""Differential-spectrum verification for hexanomial instances.

For every nonzero shift a this module counts the fiber sizes of
x -> F(x) + F(x + a) two independent ways:

* the histogram route: tabulate F once, histogram the 2^w difference
  values per shift (numpy bincount), O(4^w);
* the kernel route (the rank route): D_a is F_2-linear, so
  |ker D_a| = 2^(w - rank) with the rank over F_2 of its basis images
  D_a(X^0..X^(w-1)).  The images come from the collapsed six-term form
  in :mod:`apnforge.hexanomial` (the form the spot check holds to the
  definition), evaluated with elementwise array ops for every shift at
  once, and one Gaussian elimination vectorized over the shifts gives
  every rank: O(w^2 2^w).  The coset structure then predicts the whole
  histogram.

The routes share nothing past basic field ops, so a bug in either
exhaustive loop surfaces as a :class:`CrossCheckError` rather than a
silently wrong verdict.  A map is 2^k-to-one exactly when every attained
fiber has size 2^k; APN is the k = gcd(m, n) = 1 case.

Spectrum work is O(4^w) in the histogram route and capped (w <= 16 by
default and always in :func:`verify_instance`); the full difference
distribution table is O(4^w) memory and capped tighter (default w <= 12).
"""

from __future__ import annotations

import functools
import io
import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import hexanomial
from .field import SizeLimitError
from .hexanomial import (
    BCParams,
    eval_derivative,
    eval_derivative_linear,
    eval_hexanomial,
)

SPECTRUM_DEGREE_CAP = 16
DDT_DEGREE_CAP = 12
SPOT_CHECK_SAMPLES = 1000


class CrossCheckError(RuntimeError):
    """Histogram route and kernel route disagree: an internal bug, not a verdict."""


@dataclass(frozen=True)
class DerivativeSpectrum:
    """Fiber-size histograms per shift: histograms[a][t] = #{b : |fiber over b| = t}."""

    histograms: Mapping[int, Mapping[int, int]]
    max_count: int

    def fiber_sizes(self, a: int) -> set[int]:
        """Attained (nonzero) fiber sizes for shift a."""
        return {t for t in self.histograms[a] if t}

    def uniform_fiber_size(self) -> int | None:
        """The one fiber size attained at every shift, or None when sizes are mixed."""
        sizes = {t for hist in self.histograms.values() for t in hist if t}
        return sizes.pop() if len(sizes) == 1 else None

    def collapsed_summary(self) -> list[dict]:
        """Histogram shapes grouped over a: few lines even for big sweeps."""
        groups = Counter(
            tuple(sorted(self.histograms[a].items())) for a in sorted(self.histograms)
        )
        return [
            {"histogram": {str(t): cnt for t, cnt in shape}, "count_a": mult}
            for shape, mult in sorted(groups.items())
        ]


def value_table(p: BCParams) -> list[int]:
    """F at every element, canonical order (scalar route, on purpose)."""
    return [eval_hexanomial(p, x) for x in p.field.elements()]


@functools.lru_cache(maxsize=8)
def _ftab(p: BCParams) -> np.ndarray:
    """value_table as a read-only array, cached so per-shift loops stay O(2^w)."""
    tab = np.array(value_table(p), dtype=np.int64)
    tab.setflags(write=False)
    return tab


def check_degree(what: str, w: int, degree_cap: int) -> None:
    """Refuse a job over F_{2^w} whose cap is below w."""
    if w > degree_cap:
        raise SizeLimitError(f"{what} for w={w} exceeds cap {degree_cap}")


def derivative_spectrum(p: BCParams, degree_cap: int = SPECTRUM_DEGREE_CAP) -> DerivativeSpectrum:
    """Exhaustive fiber histograms of x -> F(x) + F(x+a) for every a != 0."""
    check_degree("spectrum", p.field.w, degree_cap)
    size = p.field.size
    ftab = _ftab(p)
    xs = np.arange(size)
    hists: dict[int, dict[int, int]] = {}
    max_count = 0
    for a in range(1, size):
        fibers = np.bincount(ftab ^ ftab[xs ^ a], minlength=size)
        shape = np.bincount(fibers)
        hists[a] = {int(t): int(cnt) for t, cnt in enumerate(shape) if cnt}
        max_count = max(max_count, len(shape) - 1)
    return DerivativeSpectrum(histograms=hists, max_count=max_count)


class _ArrayOps:
    """Elementwise F_{2^w} arithmetic on int64 arrays, from the modulus alone.

    Shift-and-reduce multiply and a Frobenius applied as the F_2-linear
    map it is, so the same code serves every w up to the field cap (24)
    and the field's log/exp tables stay private to it.
    """

    def __init__(self, w: int, modulus: int):
        self.w = w
        self.modulus = modulus
        # _frob[t][j] = (X^j)^(2^t), each row the square of the one before.
        self._frob = [np.left_shift(1, np.arange(w, dtype=np.int64))]
        for _ in range(w - 1):
            self._frob.append(self.mul(self._frob[-1], self._frob[-1]))

    def mul(self, x, y):
        x = np.asarray(x, dtype=np.int64)
        acc = np.zeros(np.broadcast_shapes(x.shape, np.shape(y)), dtype=np.int64)
        for i in range(self.w):
            acc ^= x & -((y >> i) & 1)
            x = x << 1
            x ^= self.modulus & -(x >> self.w)
        return acc

    def frobenius(self, x, t: int = 1):
        """x^(2^t): the XOR of the images (X^j)^(2^t) over the set bits j of x."""
        out = np.zeros(np.shape(x), dtype=np.int64)
        for j, image in enumerate(self._frob[t % self.w]):
            out ^= image & -((x >> j) & 1)
        return out


def _gf2_ranks(vectors, w: int, count: int) -> np.ndarray:
    """Rank over F_2 of the w-bit vectors, column by column of `count` columns.

    Each vector joins a basis indexed by leading bit (Gaussian
    elimination), vectorized over the columns: O(w) steps per vector.
    """
    basis = np.zeros((w, count), dtype=np.int64)
    for v in vectors:
        for b in reversed(range(w)):
            bit = (v >> b) & 1
            row = basis[b]
            np.copyto(row, v, where=(bit == 1) & (row == 0))
            v = v ^ (row & -bit)
    return np.count_nonzero(basis, axis=0)


def kernel_sizes(p: BCParams) -> np.ndarray:
    """|ker D_a| = 2^(w - rank) for every a (index 0 unused); the kernel route.

    The rank is over the images D_a(X^0..X^(w-1)) of the collapsed form
    in :mod:`apnforge.hexanomial`, evaluated for every shift at once.
    """
    w = p.field.w
    ops = _ArrayOps(w, p.field.modulus)
    coeffs = hexanomial.collapsed_coeffs(ops, p, np.arange(1, p.field.size, dtype=np.int64))
    images = (hexanomial.collapsed_form(ops, p, coeffs, 1 << i) for i in range(w))
    out = np.zeros(p.field.size, dtype=np.int64)
    out[1:] = np.left_shift(1, w - _gf2_ranks(images, w, p.field.order))
    return out


def _coset_histogram(size: int, kernel: int) -> dict[int, int]:
    """The fiber histogram an F_u-linear map with the given kernel size must have."""
    attained = size // kernel
    hist = {kernel: attained}
    if attained < size:
        hist[0] = size - attained
    return hist


def cross_check_spectrum(p: BCParams, spec: DerivativeSpectrum) -> None:
    """Raise CrossCheckError unless histogram and kernel routes agree exactly."""
    size = p.field.size
    ks = kernel_sizes(p)
    for a, hist in spec.histograms.items():
        predicted = _coset_histogram(size, int(ks[a]))
        if dict(hist) != predicted:
            raise CrossCheckError(
                f"shift a={a:#x}: histogram route {dict(hist)} vs kernel route {predicted}"
            )


def _spot_check(p: BCParams, seed: int) -> dict:
    """Seeded agreement samples between the defining and linear forms."""
    rng = random.Random(seed)
    size = p.field.size
    for _ in range(SPOT_CHECK_SAMPLES):
        a = rng.randrange(1, size)
        x = rng.randrange(size)
        if eval_derivative(p, a, x) != eval_derivative_linear(p, a, x):
            raise CrossCheckError(
                f"defining and linear forms disagree at a={a:#x}, x={x:#x}"
            )
    return {"seed": seed, "samples": SPOT_CHECK_SAMPLES, "agree": True}


def verify_instance(
    p: BCParams, degree_cap: int = SPECTRUM_DEGREE_CAP, seed: int = 0
) -> tuple[int | None, dict]:
    """The whole exact check: (uniform fiber size or None, report with spot check).

    The spectrum cap (never above w = 16: past it the O(4^w) histogram
    route would take tens of minutes) is checked before any work.  Both
    routes and the spot check run; any disagreement raises
    :class:`CrossCheckError` instead of a verdict.
    """
    check_degree("spectrum", p.field.w, min(degree_cap, SPECTRUM_DEGREE_CAP))
    spec = derivative_spectrum(p, degree_cap)
    cross_check_spectrum(p, spec)
    report = spectrum_report(p, spec)
    report["spot_check"] = _spot_check(p, seed)
    return spec.uniform_fiber_size(), report


def is_t_to_one(p: BCParams, t: int) -> bool:
    """Every nonzero-shift fiber has size exactly t (t a power of two)."""
    if t < 1 or t & (t - 1):
        raise ValueError(f"fiber size must be a power of two, got {t}")
    return verify_instance(p)[0] == t


def is_apn(p: BCParams) -> bool:
    """Almost perfect nonlinear: every derivative is 2-to-one."""
    return is_t_to_one(p, 2)


def ddt(p: BCParams, degree_cap: int = DDT_DEGREE_CAP) -> np.ndarray:
    """Full difference distribution table; row a=0 is the conventional [2^w, 0, ...]."""
    check_degree("ddt", p.field.w, degree_cap)
    size = p.field.size
    ftab = _ftab(p)
    xs = np.arange(size)
    table = np.zeros((size, size), dtype=np.int64)
    table[0, 0] = size
    for a in range(1, size):
        table[a] = np.bincount(ftab ^ ftab[xs ^ a], minlength=size)
    return table


def ddt_to_csv(table: np.ndarray) -> str:
    """Rows a ascending, columns b ascending, plain integers."""
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%d", delimiter=",")
    return buf.getvalue()


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
