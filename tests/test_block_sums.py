"""The engine's per-block bookkeeping against its scalar references.

``series._exact_sums`` against ``math.fsum``, the array Neumaier step
against ``CompensatedSum``, and the clearance discharge against sums that
check every sheet of every point.
"""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandro import CompensatedSum, MeanderModel, QLogModel, evaluate_sums, series, taylor_jet
from meandro.errors import MeandroError, OutOfRegime
from meandro.geometry import Perforation
from meandro.tails import _CertifiedTails

_U = 2.0**-53
_BIG = 1.7e308


def _row(kind: str, n: int, rng) -> list[float]:
    """A row of n >= 1 finite floats of one kind."""
    if kind == "tie":  # exactly half-way between 1 and its successor
        return [1.0, _U] + [0.0] * (n - 2) if n >= 2 else [_U]
    if kind == "near-tie":  # within a few ulps of 2**-105 of a tie, by parts a float sum may drop
        head = [1.0, _U * (1.0 - float(rng.integers(0, 3)) * 2.0**-52)]
        tail = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-112, -100, n).astype(float)
        return (head + tail.tolist())[:n]
    if kind == "cancellation":
        return ([1e16, 1.0, -1e16] * n)[:n]
    if kind == "subnormal":
        return (rng.integers(-(2**20), 2**20, n) * 5e-324 * rng.choice([1.0, 2.0**30], n)).tolist()
    if kind == "zeros":
        return rng.choice([0.0, -0.0], n).tolist() if rng.uniform() < 0.5 else [-0.0] * n
    if kind == "exact-zero":  # pairs that cancel exactly, shuffled
        half = (rng.standard_normal((n + 1) // 2) * 10.0 ** rng.uniform(-200, 200)).tolist()
        values = half + [-v for v in half]
        rng.shuffle(values)
        return values[:n] if n % 2 == 0 else values[: n - 1] + [0.0]
    if kind == "spread":  # 600 decades
        return (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)).tolist()
    if kind == "overflow":
        return (rng.choice([1.0, 0.5, -0.25], n) * _BIG).tolist()
    if kind == "same-sign":  # partial sums near n times the largest value
        return (rng.uniform(1.0, 2.0, n) * 10.0 ** rng.uniform(-5, 5)).tolist()
    if kind == "drift":  # as same-sign, with a few small parts of the other sign
        values = rng.uniform(0.9, 1.0, n)
        values[rng.uniform(size=n) < 0.1] *= -1e-3
        return (values * 10.0 ** rng.uniform(-5, 5)).tolist()
    if kind == "geometric":  # like a block of terms: a decaying series with a phase
        ratio = rng.uniform(0.5, 0.999) * cmath.exp(1j * rng.uniform(0, math.tau))
        return (ratio ** np.arange(n)).real.tolist()
    return (rng.standard_normal(n) * 10.0 ** rng.uniform(-10, 10)).tolist()


_KINDS = ["tie", "near-tie", "cancellation", "subnormal", "zeros", "exact-zero", "spread", "overflow",
          "same-sign", "drift", "geometric", "normal"]


def _fsum(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        return math.nan


def _same_bits(got: float, want: float) -> bool:
    return (math.isnan(got) and math.isnan(want)) or float(got).hex() == float(want).hex()


def _padded(rows: list[list[float]], rng) -> np.ndarray:
    """The rows as one array, padded with values no sum may read."""
    width = max(len(r) for r in rows)
    x = np.empty((len(rows), width))
    for i, r in enumerate(rows):
        x[i, : len(r)] = r
        x[i, len(r) :] = rng.choice([math.nan, math.inf, -math.inf, _BIG], width - len(r))
    return x


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6),
    lengths=st.lists(st.integers(1, 300), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    stacked=st.booleans(),
    tile=st.sampled_from([1, 64, series._TILE_VALUES]),
    numpy_route=st.booleans(),
)
def test_exact_sums_are_fsum_bit_for_bit(kinds, lengths, seed, stacked, tile, numpy_route):
    rng = np.random.default_rng(seed)
    rows = [_row(kind, n, rng) for kind, n in zip(kinds, lengths)]
    if stacked:  # complex rows as the engine passes them: real and imaginary parts interleaved
        imag = [_row(kinds[(i + 1) % len(kinds)], len(r), rng) for i, r in enumerate(rows)]
        rows = [part for pair in zip(rows, imag) for part in pair]
    lens = np.array([len(r) for r in rows])
    x = _padded(rows, rng)
    floor = 0 if numpy_route else series._FSUM_BELOW
    with mock.patch.object(series, "_FSUM_BELOW", floor), mock.patch.object(series, "_TILE_VALUES", tile):
        got = series._exact_sums(x, lens)
    for g, r in zip(got.tolist(), rows):
        assert _same_bits(g, _fsum(r)), (r, g)


@pytest.mark.parametrize(
    "row, want",
    [([1.0, _U], 1.0), ([1.0, _U, 2.0**-110, 2.0**-110], 1.0 + 2 * _U), ([1e16, 1.0, -1e16], 1.0),
     # Just below the tie, and pushed past it by parts that numpy's sum of
     # the low parts drops: only the error bound sends the row to fsum.
     ([1.0, _U - 2.0**-106] + ([0.0] * 7 + [2.0**-108]) * 6, 1.0 + 2 * _U),
     # The low parts' float sum is an exact 0 that is not their sum.
     ([2.0**60, 1e-20, 1.0, -1.0, -(2.0**60)], 1e-20),
     ([-0.0, -0.0], 0.0), ([0.0, -0.0], 0.0), ([5e-324, -5e-324], 0.0), ([_BIG, _BIG, -_BIG], math.nan),
     # numpy's order cancels to 0 where fsum's overflows.
     ([_BIG, _BIG] + [0.0] * 6 + [-_BIG, -_BIG] + [0.0] * 6, math.nan)],
    ids=["tie", "near-tie", "cancellation", "dropped-low-parts", "cancelled-low-parts", "negative-zeros", "zeros",
         "subnormal-zero", "overflow", "overflow-numpy-misses"],
)
def test_exact_sums_of_the_hard_rows(row, want):
    with mock.patch.object(series, "_FSUM_BELOW", 0):
        got = series._exact_sums(np.array([row]), np.array([len(row)]))[0]
    assert _same_bits(got, want)
    assert _same_bits(got, _fsum(row))


def test_the_vectorised_neumaier_step_is_compensated_sum_bit_for_bit():
    rng = np.random.default_rng(7)
    lanes, steps = 40, 25
    values = rng.standard_normal((steps, lanes, 2)) * 10.0 ** rng.uniform(-20, 20, (steps, lanes, 2))
    values[::3, ::2] *= -1e16  # cancellation between steps
    values[5, :, 1] = 0.0
    s, c = np.zeros((lanes, 2)), np.zeros((lanes, 2))
    accs = [CompensatedSum() for _ in range(lanes)]
    for x in values:
        s, c = series._neumaier_step(s, c, x)
        for acc, (re, im) in zip(accs, x.tolist()):
            acc.add(complex(re, im))
    for acc, (re, im) in zip(accs, (s + c).tolist()):
        assert (re.hex(), im.hex()) == (acc.value.real.hex(), acc.value.imag.hex())


def _meander_points(rng, count: int) -> list[complex]:
    """Points of |z| < 1.5 away from the meander's poles on [-1, 0]."""
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(z) < 1.5 and not (-1.06 <= z.real <= 0.01 and abs(z.imag) < 0.06):
            pts.append(z)
    return pts


def _pairs(seq, zs, clear: bool) -> tuple[int, list]:
    """Point-sheet pairs that first_blocked_all is given, and the outcomes."""
    pairs = 0
    scan = Perforation.first_blocked_all

    def counting(self, ns, points, margin=0.0, ends=None):
        nonlocal pairs
        pairs += sum(ends) if ends is not None else len(ns) * len(points)
        return scan(self, ns, points, margin, ends)

    with mock.patch.object(Perforation, "first_blocked_all", counting):
        if clear:
            out = evaluate_sums(seq, zs)
        else:
            with mock.patch.object(series, "_tail_clears", lambda *args: False):
                out = evaluate_sums(seq, zs)
    return pairs, out


def test_cleared_points_are_checked_in_the_first_block_only():
    # The meander at x = 0.95 stops on sheet 693 at every point.  After the
    # first block (sheets 1-64) each of these points is clear of every later
    # disc, so its other 629 sheets go unchecked.
    seq = MeanderModel(0.95, c=0.05)
    zs = [0.3 + 0.2j] + _meander_points(np.random.default_rng(1), 59)
    fsums = mock.patch.object(series, "_fsum", wraps=series._fsum)
    with fsums as spy:
        pairs, got = _pairs(seq, zs, clear=True)
    assert {res.terms_used for res in got} == {693}
    assert pairs == 60 * 64
    assert spy.call_count == 0  # every block sum came from numpy
    every_sheet, want = _pairs(seq, zs, clear=False)
    assert every_sheet == 60 * 693
    assert got == want


def _counts(run) -> tuple[int, int, object]:
    """Point-sheet pairs given to first_blocked_all and certified tails taken during run(), and its value."""
    pairs = taken = 0
    scan, tail = Perforation.first_blocked_all, _CertifiedTails.tail

    def counting(self, ns, points, margin=0.0, ends=None):
        nonlocal pairs
        pairs += sum(ends) if ends is not None else len(ns) * len(points)
        return scan(self, ns, points, margin, ends)

    def counted(self, k, n):
        nonlocal taken
        taken += 1
        return tail(self, k, n)

    with mock.patch.object(Perforation, "first_blocked_all", counting), \
            mock.patch.object(_CertifiedTails, "tail", counted):
        value = run()
    return pairs, taken, value


def _jet_bytes(jet) -> tuple[bytes, bytes]:
    return jet.coefficients.tobytes(), jet.coefficient_tails.tobytes()


def test_a_jet_at_an_accumulation_point_leaves_the_clearance_scan_after_one_block():
    # The bench's order-30 jet at 0, where the poles -1/n accumulate: the
    # distance power law clears 0 of every disc of sheets 65 to 200 000.
    # Without it, every sheet through the furthest stop (1 878) is checked.
    jet = lambda: taylor_jet(MeanderModel(0.95), 0j, 30, rel_tol=1e-10, max_terms=200_000)
    pairs, taken, got = _counts(jet)
    assert pairs == 64
    assert taken == 316  # certified tails
    with mock.patch.object(series, "_tail_clears", lambda *args: False):
        every_sheet, _, want = _counts(jet)
    assert every_sheet == 1878
    assert _jet_bytes(got) == _jet_bytes(want)


def test_gevrey_jet_and_rows_are_checked_in_their_first_block():
    # The bench's gevrey op: an order-40 jet at 0 and three order-0 rows.
    # The jet is checked on its first block of 64 sheets, and each row on
    # the 43 sheets through its stop.
    seq = MeanderModel(0.5, c=0.1)

    def run():
        jet = taylor_jet(seq, 0j, 40, rel_tol=1e-10, max_terms=10_000)
        return _jet_bytes(jet), _outcomes(evaluate_sums(seq, [0.05, 0.12, 0.25], tol=1e-10, max_terms=10_000))

    pairs, _, got = _counts(run)
    assert pairs == 64 + 3 * 43
    with mock.patch.object(series, "_tail_clears", lambda *args: False):
        _, _, want = _counts(run)
    assert got == want


def _outcomes(results) -> list:
    out = []
    for res in results:
        if isinstance(res, MeandroError):
            out.append((type(res).__name__, str(res)))
        else:
            out.append((res.value.real.hex(), res.value.imag.hex(), res.terms_used, res.tail_bound.hex()))
    return out


def _jet(seq, z0, m):
    try:
        jet = taylor_jet(seq, z0, m)
    except MeandroError as exc:
        return type(exc).__name__, str(exc)
    return jet.coefficients.tobytes(), jet.coefficient_tails.tobytes()


_SEQUENCES = {
    "meander": lambda: MeanderModel(0.95, c=0.05),
    "qlog": lambda: QLogModel(0.9),
    # The radius leaves the float range on sheet 1210, where no point is cleared.
    "meander-alpha-100": lambda: MeanderModel(0.7, c=0.1, alpha=100),
}


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(sorted(_SEQUENCES)), seed=st.integers(0, 2**32 - 1))
def test_clearance_discharge_changes_no_outcome(family, seed):
    seq = _SEQUENCES[family]()
    perf = seq.perforation
    rng = np.random.default_rng(seed)
    zs = [1.4 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, math.tau)) for _ in range(8)]
    # Points in a removed disc of a late sheet, and just outside one.
    for n in rng.integers(65, 1200, size=4).tolist():
        pole = complex(seq.poles(n)[int(rng.integers(len(seq.poles(n))))])
        for scale in (0.5, 1.01):
            zs.append(pole + scale * perf.radius_at(n) * cmath.exp(1j * rng.uniform(0, math.tau)))
    with mock.patch.object(series, "_tail_clears", lambda *args: False):
        want = _outcomes(evaluate_sums(seq, zs))
        jets = [_jet(seq, z, 6) for z in zs[::3]]
    assert _outcomes(evaluate_sums(seq, zs)) == want
    assert [_jet(seq, z, 6) for z in zs[::3]] == jets


def test_a_cleared_point_still_meets_a_radius_below_the_float_range():
    # With alpha = 100 the radius leaves the float range on sheet 1210; the
    # point is clear of the discs after sheet 64, but not of that error.
    # At x = 0.7 the tail is still above the tolerance there.
    seq = MeanderModel(0.7, c=0.1, alpha=100.0)
    [error] = evaluate_sums(seq, [0.1 + 0j])
    assert isinstance(error, MeandroError)
    assert "below the float range on sheet 1210" in str(error)


def test_no_point_is_cleared_in_a_pass_past_the_float_range_of_the_radius():
    # The pass of evaluate_sums runs to sheet 200 000, whose radius is below
    # the float range at alpha = 100, so no clearance is tried and the point
    # meets that range's error on sheet 1210.
    spy = mock.Mock(wraps=series._tail_clears)
    with mock.patch.object(series, "_tail_clears", spy):
        [error] = evaluate_sums(MeanderModel(0.7, c=0.1, alpha=100.0), [0.1 + 0j])
    assert spy.call_count == 0
    assert isinstance(error, OutOfRegime)
    assert "below the float range on sheet 1210" in str(error)
