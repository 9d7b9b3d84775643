"""The engine's per-block bookkeeping against its scalar references.

The rounding bound of ``SumResult`` against exact sums of the float terms
(integers in units of 2**-1074), the padding of ``series._block_sums``
against rows reduced one by one, the array Neumaier step against
``CompensatedSum``, and the clearance discharge against sums that check
every sheet of every point.
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
from meandro.geometry import DiophantineRadius, MeanderPoles, Perforation
from meandro.series import TermSequence
from meandro.tails import _CertifiedTails

_BIG = 1.7e308


def _row(kind: str, n: int, rng) -> np.ndarray:
    """A row of n >= 1 finite floats of one kind."""
    if kind == "cancellation":
        return np.array(([1e16, 1.0, -1e16] * n)[:n])
    if kind == "subnormal":
        return rng.integers(-(2**20), 2**20, n) * 5e-324 * rng.choice([1.0, 2.0**30], n)
    if kind == "exact-zero":  # pairs that cancel exactly, shuffled
        half = rng.standard_normal((n + 1) // 2) * 10.0 ** rng.uniform(-200, 200)
        values = np.concatenate((half, -half))
        rng.shuffle(values)
        return values[:n] if n % 2 == 0 else np.append(values[: n - 1], 0.0)
    if kind == "spread":  # 600 decades
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    if kind == "large":  # partial sums far past the terms, near the float range
        return rng.choice([1.0, -0.25], n) * 1e300 * rng.uniform(0.5, 1.0, n)
    if kind == "same-sign":  # partial sums near n times the largest value
        return rng.uniform(1.0, 2.0, n) * 10.0 ** rng.uniform(-5, 5)
    if kind == "drift":  # as same-sign, with a few small parts of the other sign
        values = rng.uniform(0.9, 1.0, n)
        values[rng.uniform(size=n) < 0.1] *= -1e-3
        return values * 10.0 ** rng.uniform(-5, 5)
    if kind == "geometric":  # like a block of terms: a decaying series with a phase
        ratio = rng.uniform(0.5, 0.999) * cmath.exp(1j * rng.uniform(0, math.tau))
        return (ratio ** np.arange(n)).real
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-10, 10)


_KINDS = ["cancellation", "subnormal", "exact-zero", "spread", "large", "same-sign", "drift", "geometric", "normal"]
#: Lengths about numpy's thresholds (8 and 128 values) and the first blocks' ends (64, 192, 448, ...).
_LENGTHS = [1, 2, 7, 8, 9, 15, 16, 63, 64, 65, 127, 128, 129, 191, 192, 193, 300, 448, 449, 1000, 2047, 5000]


def _units(x: float) -> int:
    """x in units of 2**-1074, the least float: an exact integer."""
    num, den = x.as_integer_ratio()
    return num * (2**1074 // den)


class _Given(TermSequence):
    """A finite family whose terms are given values, the same at every point and order."""

    def __init__(self, values: np.ndarray):
        self.values, self.n_max = values, len(values)
        self.perforation = Perforation(MeanderPoles(), DiophantineRadius(0.05, 2.0, 1.5))

    def term_grid(self, ns, zs):
        return np.tile(self.values[ns - 1], (len(zs), 1))

    def taylor_coefficients(self, ns, m, z):
        return np.tile(self.values[ns - 1], (m + 1, 1))


def _error_units(got: complex, values: np.ndarray) -> int:
    """|Re(got - S)| + |Im(got - S)| in units of 2**-1074, S the exact sum of the values."""
    re, im = sum(map(_units, values.real.tolist())), sum(map(_units, values.imag.tolist()))
    return abs(_units(got.real) - re) + abs(_units(got.imag) - im)


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.tuples(st.sampled_from(_KINDS), st.sampled_from(_KINDS)),
    n=st.one_of(st.sampled_from(_LENGTHS), st.integers(1, 5000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_sum_is_within_its_rounding_of_the_exact_sum_of_its_terms(kinds, n, seed):
    rng = np.random.default_rng(seed)
    values = _row(kinds[0], n, rng) + 1j * _row(kinds[1], n, rng)
    [res] = evaluate_sums(_Given(values), [5.0 + 0j])
    assert (res.terms_used, res.tail_bound) == (n, 0.0)
    assert _error_units(res.value, values) <= _units(res.rounding)
    assert res.error_bound == res.rounding
    # A jet's coefficients are the sums themselves, each within its rounding.
    jet = taylor_jet(_Given(values), 5.0 + 0j, 3)
    for k, (a, bound) in enumerate(zip(jet.coefficients.tolist(), jet.coefficient_rounding.tolist())):
        assert _error_units(a, values) <= _units(bound), k


_U = 2.0**-53


@pytest.mark.parametrize(
    "row",
    [[1.0, _U], [1.0, _U, 2.0**-110, 2.0**-110], [1e16, 1.0, -1e16],
     [1.0, _U - 2.0**-106] + ([0.0] * 7 + [2.0**-108]) * 6,
     [2.0**60, 1e-20, 1.0, -1.0, -(2.0**60)],
     [-0.0, -0.0], [0.0, -0.0], [5e-324, -5e-324], [_BIG, _BIG, -_BIG],
     # numpy's order cancels the large values before they overflow.
     [_BIG, _BIG] + [0.0] * 6 + [-_BIG, -_BIG] + [0.0] * 6],
    ids=["tie", "near-tie", "cancellation", "dropped-low-parts", "cancelled-low-parts", "negative-zeros", "zeros",
         "subnormal-zero", "overflow", "overflow-numpy-misses"],
)
def test_exact_sums_of_the_hard_rows(row):
    # Ties, parts far below an ulp of the sum, cancellation and overflow: each
    # sum is within its rounding of the exact sum of its terms, or, where
    # numpy's order leaves the float range, a typed error names the block.
    values = np.array(row, dtype=complex)
    [res] = evaluate_sums(_Given(values), [5.0 + 0j])
    if isinstance(res, MeandroError):
        assert isinstance(res, OutOfRegime) and str(res) == f"the order-0 sum over sheets 1 to {len(row)} overflows a float"
        with np.errstate(over="ignore"):
            assert not math.isfinite(np.add.reduce(values.real))
        return
    assert res.rounding == math.inf or _error_units(res.value, values) <= _units(res.rounding)


def test_a_sum_without_rounding_has_no_rounding_bound():
    # One term, and terms that are all zero: no addition rounds.
    for values in ([0.1 + 0.2j], [0j] * 300):
        [res] = evaluate_sums(_Given(np.array(values)), [5.0 + 0j])
        assert (res.value, res.rounding, res.error_bound) == (values[0], 0.0, 0.0)


def _pairwise(values: list[float]) -> tuple[float, int]:
    """numpy's pairwise sum of the values, operation for operation, and the most roundings on one value's path."""
    n = len(values)
    if n < 8:
        total, depth = 0.0 + values[0], 0
        for v in values[1:]:
            total, depth = total + v, depth + 1
        return total, depth
    if n <= 128:
        acc, i = values[:8], 8
        while i < n - n % 8:
            acc = [a + v for a, v in zip(acc, values[i : i + 8])]
            i += 8
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        depth = (i // 8 - 1) + 3
        for v in values[i:]:
            total, depth = total + v, depth + 1
        return total, depth
    half = n // 2 - n // 2 % 8
    (a, da), (b, db) = _pairwise(values[:half]), _pairwise(values[half:])
    return a + b, 1 + max(da, db)


def test_the_depth_is_that_of_numpys_order():
    # numpy's sums of rows of complex terms, real and imaginary parts, are
    # the pairwise sums above bit for bit, so their depth is _depth's.
    rng = np.random.default_rng(5)
    for n in [*range(1, 300), 1000, 4095, 8192, 8193, 20_000, 65_536, 70_001]:
        terms = rng.standard_normal((3, n + 2)) * 10.0 ** rng.uniform(-8, 8, (3, n + 2))
        terms = (terms + 1j * terms[::-1])[:, :n]
        for part in (terms.real, terms.imag):
            for got, row in zip(np.add.reduce(part, axis=1).tolist(), part.tolist()):
                want, depth = _pairwise(row)
                assert got.hex() == want.hex(), n
                assert series._depth(n) == depth, n


@settings(max_examples=40, deadline=None)
@given(lens=st.lists(st.integers(1, 300), min_size=1, max_size=12), padded=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_sums_pad_one_points_rows_to_the_longest(lens, padded, seed):
    # Padded rows (one point's) are summed as rows zero-padded to the longest; others at their own length.
    rng = np.random.default_rng(seed)
    lens = np.array(lens)
    width = int(lens.max()) + int(rng.integers(0, 5))
    terms = rng.standard_normal((len(lens), width)) + 1j * rng.standard_normal((len(lens), width))
    terms *= 10.0 ** rng.uniform(-3, 3, (len(lens), 1))
    terms[np.arange(width) >= lens[:, None]] = rng.choice([math.nan, math.inf, _BIG], 1)[0]  # never read
    sums, weights = series._block_sums(terms.copy(), lens, padded)
    for (re, im), weight, row, n in zip(sums.tolist(), weights.tolist(), terms, lens.tolist()):
        kept = row[:n]
        size = int(lens.max()) if padded else n
        alone = np.concatenate((kept, np.zeros(size - n, dtype=complex)))
        assert (re, im) == (np.add.reduce(alone.real), np.add.reduce(alone.imag))
        assert weight == series._depth(size) * (np.add.reduce(np.abs(alone.real)) + np.add.reduce(np.abs(alone.imag)))
        assert _error_units(complex(re, im), kept) <= _units(weight * 2.0**-53 * (1.0 + 2.0**-30))


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
    pairs, got = _pairs(seq, zs, clear=True)
    assert {res.terms_used for res in got} == {693}
    assert pairs == 60 * 64
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
