"""The batched ``evaluate_sums`` against lone ``evaluate_sum`` calls, bit for bit."""

import cmath
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meandro import (
    MeanderModel,
    QLogModel,
    SumResult,
    ZeroSumGeneral,
    ZeroSumPiK,
    evaluate_sum,
    evaluate_sums,
    pullback_model,
    ray_trace,
    series,
)
from meandro.errors import MeandroError, PoleProximity, TolUnreachable
from meandro.geometry import _GROUP_VALUES

_ZERO_SUM_POLES = [0.8 + 0.3j, -1.1 + 0.5j, 0.2 - 1.4j, 1.7 + 0j]


def _disc_point(rng, pole: complex, radius: float) -> complex:
    """A point inside the removed disc of this radius around the pole."""
    return pole + 0.5 * radius * cmath.exp(1j * rng.uniform(0.0, math.tau))


def _meander_points(rng):
    u = rng.uniform()
    if u < 0.15:
        n = int(rng.integers(1, 12))
        return _disc_point(rng, -1.0 / n, 0.1 / n**2)  # a removed disc: PoleProximity
    if u < 0.2:
        return complex(1e308, 1e308)  # non-finite terms: OutOfRegime
    return 1.4 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, math.tau))


def _qlog_points(rng):
    u = rng.uniform()
    if u < 0.15:
        n = int(rng.integers(1, 9))
        root = cmath.exp(2j * math.pi * int(rng.integers(n)) / n)
        return _disc_point(rng, root, 0.05 / n**2)  # a removed disc: PoleProximity
    if u < 0.25:
        return rng.uniform(2.2, 3.0) * cmath.exp(1j * rng.uniform(0.0, math.tau))  # far outside the unit circle
    modulus = rng.uniform(0.05, 0.93) if u < 0.6 else rng.uniform(1.07, 2.0)  # both sides of |z| = 1
    return modulus * cmath.exp(1j * rng.uniform(0.0, math.tau))


def _zero_sum_points(rng):
    u = rng.uniform()
    if u < 0.15:
        return _disc_point(rng, _ZERO_SUM_POLES[int(rng.integers(4))], 0.1)
    if u < 0.25:
        return complex(rng.uniform(3.5, 4.0), 0.0)  # far from the poles: summed to the last sheet, tail 0
    return complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))


def _pullback_points(rng):
    if rng.uniform() < 0.15:
        n = int(rng.integers(1, 8))
        # A preimage of the pole -1/n under w -> w**2; the radius is 0.1/3/n**2.
        return _disc_point(rng, 1j / math.sqrt(n), 0.1 / 3.0 / n**2)
    return 1.1 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, math.tau))


def _pik_points(rng):
    if rng.uniform() < 0.2:
        n = int(rng.integers(1, 6))
        return _disc_point(rng, 1.0 / n, 0.05 / (n + 1) ** 2)
    return complex(rng.uniform(-0.4, 0.1), rng.uniform(-0.4, 0.4))


FAMILIES = {
    "meander": (MeanderModel(0.45 - 0.2j, c=0.1), _meander_points),
    "qlog": (QLogModel(0.4 + 0.3j), _qlog_points),
    "zero-sum": (ZeroSumGeneral(1, _ZERO_SUM_POLES), _zero_sum_points),
    "pullback": (pullback_model(MeanderModel(0.5, c=0.1), 2), _pullback_points),
    "zero-sum-pik": (ZeroSumPiK(), _pik_points),
}


def _bits(x: float) -> str:
    return float(x).hex()


def _same(got, want) -> bool:
    """Equal bit for bit: value, sheets and tail, or error type, message and witness."""
    if isinstance(want, SumResult):
        return (
            isinstance(got, SumResult)
            and (_bits(got.value.real), _bits(got.value.imag)) == (_bits(want.value.real), _bits(want.value.imag))
            and got.terms_used == want.terms_used
            and _bits(got.tail_bound) == _bits(want.tail_bound)
        )
    same = type(got) is type(want) and str(got) == str(want)
    if isinstance(want, PoleProximity):
        same = same and (got.sheet, got.pole) == (want.sheet, want.pole)
    return same


def _lone(seq, z, **kwargs):
    try:
        return evaluate_sum(seq, z, **kwargs)
    except MeandroError as exc:
        return exc


# The first block holds 64 sheets, so one lane group there holds this many points.
_FIRST_GROUP = _GROUP_VALUES // 64


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    count=st.sampled_from([1, 3, _FIRST_GROUP - 1, _FIRST_GROUP, _FIRST_GROUP + 1]),
    seed=st.integers(0, 2**32 - 1),
    numpy_points=st.booleans(),
)
def test_batched_sums_equal_lone_calls_bit_for_bit(family, count, seed, numpy_points):
    seq, draw = FAMILIES[family]
    rng = np.random.default_rng(seed)
    zs = [draw(rng) for _ in range(count)]
    if numpy_points:  # as on a ray: 1/z rounds differently for numpy scalars
        zs = [np.complex128(z) for z in zs]
    batch = evaluate_sums(seq, zs, tol=1e-10, max_terms=5_000)
    assert len(batch) == count
    for z, got in zip(zs, batch):
        assert _same(got, _lone(seq, z, tol=1e-10, max_terms=5_000)), z


def _in_groups(plain: str, specials: list[tuple[complex, str]]):
    """Points over four lane groups of the first block, one special point in each of the first groups.

    Every other point lies on a segment clear of the removed discs, where
    it ends in ``plain``.  Returns the points and the kind of each outcome.
    """
    zs = [complex(t, 0.3) for t in np.linspace(-0.8, 0.8, 3 * _FIRST_GROUP + 5)]
    kinds = [plain] * len(zs)
    for group, (z, kind) in enumerate(specials):
        zs[group * _FIRST_GROUP + 7], kinds[group * _FIRST_GROUP + 7] = z, kind
    return zs, kinds


# Batches with every kind of outcome: (sequence, points, kind of each outcome).
_EVERY_KIND = [
    (QLogModel(0.5), [0.3 + 0.2j, 1.0 + 0.001j, 2.5 + 0j, np.complex128(1.5 - 0.4j), 0.1j],
     ["SumResult", "PoleProximity", "SumResult", "SumResult", "SumResult"]),
    (MeanderModel(0.5), [0.2 + 0j, complex(1e308, 1e308)], ["SumResult", "OutOfRegime"]),
    # A disc of sheet 3 and sums, each in its own lane group.
    (QLogModel(0.5), *_in_groups("SumResult", [(cmath.exp(2j * math.pi / 3) + 0.001, "PoleProximity"),
                                               (2.5 + 0j, "SumResult")])),
    # On the imaginary axis the pi_k tails do not reach the tolerance within
    # the sheets; in the right half-plane the series diverges.
    (ZeroSumPiK(), [-0.3 + 0j, 0.2j, 0.5 + 0j], ["SumResult", "TolUnreachable", "NonConvergent"]),
    # A disc of sheet 3, non-finite terms, and |z| past the float range.
    (MeanderModel(0.5), *_in_groups("SumResult", [(-1 / 3 + 0.001j, "PoleProximity"),
                                                  (complex(1e308, 1e308), "OutOfRegime"),
                                                  (complex(1.7e308, 1.7e308), "OutOfRegime")])),
    # Sheet radii past the float range from sheet 1210 on, which every point
    # reaches but those in a disc of sheet 2 and those with non-finite terms.
    (MeanderModel(0.7, c=0.1, alpha=100), *_in_groups("OutOfRegime", [(-0.5 + 0j, "PoleProximity"),
                                                                      (complex(1e308, 1e308), "OutOfRegime")])),
]


def test_one_batch_holds_every_kind_of_outcome():
    for seq, zs, kinds in _EVERY_KIND:
        batch = evaluate_sums(seq, zs, max_terms=5_000)
        assert [type(res).__name__ for res in batch] == kinds
        for z, got in zip(zs, batch):
            assert _same(got, _lone(seq, z, max_terms=5_000)), z


@pytest.mark.parametrize("seq", [QLogModel(0.4 + 0.3j), MeanderModel(0.45 - 0.2j)], ids=["qlog", "meander"])
def test_real_points_keep_real_arithmetic(seq):
    # A real z takes real powers in the q-log terms; a batch must not turn it complex.
    zs = [0.5, -0.75, 1.5, 0.3 + 0.1j, 2]
    for z, got in zip(zs, evaluate_sums(seq, zs)):
        assert _same(got, _lone(seq, z))


def test_no_points_no_sums():
    assert evaluate_sums(MeanderModel(0.5), []) == []
    with pytest.raises(ValueError):
        evaluate_sums(MeanderModel(0.5), [0j], tol=0.0)


def test_ray_trace_rows_are_those_of_lone_calls():
    seq = QLogModel(0.5)
    ts = np.arange(0.0, 2.0, 0.1)
    theta = 0.0  # the ray runs into the removed disc of the root 1 at t = 1
    direction = cmath.exp(1j * theta)
    rows = ray_trace(seq, theta, ts, tol=1e-10, max_terms=5_000)
    assert [row.t for row in rows] == ts.tolist()
    assert any(row.flagged for row in rows)
    for row, t in zip(rows, ts):
        want = _lone(seq, t * direction, tol=1e-10, max_terms=5_000)
        if isinstance(want, PoleProximity):
            assert (row.value, row.flagged) == (None, (want.sheet, want.pole))
        else:
            assert (row.value, row.tail_bound, row.terms_used, row.rounding) == (
                want.value, want.tail_bound, want.terms_used, want.rounding
            )


@pytest.mark.parametrize("sheets", [1, 2, 3, 64, 1000])
@pytest.mark.parametrize("family", ["meander", "qlog", "pullback", "zero-sum", "zero-sum-pik"])
def test_term_grid_rows_are_order_zero_derivatives_bit_for_bit(family, sheets):
    # A block of one sheet matters: numpy may round a product over a column
    # of points apart from the one-element product of a lone call.
    seq, draw = FAMILIES[family]
    rng = np.random.default_rng(sheets)
    for start in rng.integers(1, 1500, size=12).tolist():
        zs = [draw(rng) for _ in range(24)]
        zs = [np.complex128(z) if i % 2 else z for i, z in enumerate(zs)]
        zs[:3] = [float(z.real) for z in zs[:3]]  # real points take real arithmetic
        ns = np.arange(start, start + sheets)
        if seq.n_max is not None:  # a finite family's sheets, repeated
            ns %= seq.n_max + 1
        with np.errstate(all="ignore"):
            grid = seq.term_grid(ns, zs)
            rows = [seq.taylor_coefficients(ns, 0, z)[0] for z in zs]
        assert grid.shape == (len(zs), sheets)
        for got, want in zip(grid, rows):
            assert got.tobytes() == want.tobytes()


def test_a_missing_radius_is_the_error_of_each_point_that_reaches_it():
    # Sheet 1 of this family has no tabulated radius.  A point in sheet 0's
    # disc stops there; every other point reaches sheet 1, as alone.
    from meandro.geometry import Perforation, TableRadius

    seq = ZeroSumGeneral(1, [0.8 + 0.3j, -1.1 + 0.5j])
    seq.perforation = Perforation(seq.perforation.poles, TableRadius({0: 0.1}))
    zs = [0.81 + 0.3j, 0.1j, 0.2 + 0j]
    batch = evaluate_sums(seq, zs)
    assert [type(res).__name__ for res in batch] == ["PoleProximity", "ConfigError", "ConfigError"]
    for z, got in zip(zs, batch):
        assert _same(got, _lone(seq, z))


def test_a_radius_below_the_float_range_is_the_error_of_each_point_that_reaches_it():
    # At alpha = 100 the radius of sheet 1210 is below the float range.  A point
    # in sheet 2's disc stops there, and every other point reaches sheet 1210.
    seq = MeanderModel(0.7, c=0.1, alpha=100)
    zs = [-0.5, 0.1, -0.5 + 1e-3j, 0.3]
    batch = evaluate_sums(seq, zs)
    assert [type(res).__name__ for res in batch] == ["PoleProximity", "OutOfRegime", "OutOfRegime", "OutOfRegime"]
    for z, got in zip(zs, batch):
        assert _same(got, _lone(seq, z))


# Certified plain sums stop at the first sheet n with decay_cert.tail(n) <= tol,
# known before any term.  Order-0 blocks run 1-64, 65-192, 193-448, ...
_BLOCK_EDGES = [64, 65, 192, 193]


def _reference(seq, z, tol, max_terms):
    """``evaluate_sum`` sheet by sheet: pole check and tail on each sheet in turn.

    Returns (sheets, tail) or the error type with its sheet.
    """
    cert, perf = seq.decay_cert, seq.perforation
    for n in range(seq.n_min, seq.n_min + max_terms):
        pole, d = perf.nearest_pole(n, z)
        if d < perf.radius_at(n):
            return PoleProximity, n
        if cert.tail(n) <= tol:
            return n, cert.tail(n)
    return TolUnreachable, None


def _spied(seq):
    """seq with a term_grid that records every sheet it is asked for."""
    asked = []
    grid = seq.term_grid

    def spy(ns, zs):
        asked.extend(ns.tolist())
        return grid(ns, zs)

    seq.term_grid = spy
    return seq, asked


_CERTIFIED = {"meander": lambda: MeanderModel(0.45 - 0.2j, c=0.1), "qlog": lambda: QLogModel(0.4 + 0.3j)}


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(_CERTIFIED)),
    stop=st.one_of(st.sampled_from(_BLOCK_EDGES), st.integers(1, 400)),
    short=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# Points just outside the unit circle, where the q-log's term_grid takes
# a/(1 - a) with a = (1/z)**n and its scalar term x**n/(z**n - 1): the two
# term sums differ by 1.7e-14 and 5.7e-14 here.
@example(family="qlog", stop=129, short=False, seed=438)
@example(family="qlog", stop=320, short=False, seed=393)
def test_certified_sums_stop_where_a_sheet_by_sheet_sum_stops(family, stop, short, seed):
    seq, asked = _spied(_CERTIFIED[family]())
    tol = seq.decay_cert.tail(stop)  # tail(stop - 1) > tol: the stop is that sheet
    max_terms = stop - 1 if short and stop > 1 else 5_000  # a stop past max_terms: TolUnreachable
    rng = np.random.default_rng(seed)
    zs = [0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, math.tau)) for _ in range(6)]
    # Points in a removed disc of a sheet before the stop, on it and after it.
    for n in {max(1, stop // 2), stop, stop + 1, 2 * stop + 5}:
        pole = seq.poles(n)[int(rng.integers(len(seq.poles(n))))]
        zs.append(_disc_point(rng, complex(pole), seq.perforation.radius_at(n)))
    batch = evaluate_sums(seq, zs, tol=tol, max_terms=max_terms)
    for z, got in zip(zs, batch):
        want = _reference(seq, z, tol, max_terms)
        if isinstance(want[0], type):
            assert type(got) is want[0], (z, got)
            if want[0] is PoleProximity:
                assert got.sheet == want[1]
            continue
        sheets, tail = want
        assert isinstance(got, SumResult), (z, got)
        assert (got.terms_used, got.tail_bound) == (sheets, tail)
        # The terms the engine sums (term_grid's), not the scalar term's.
        with np.errstate(all="ignore"):
            terms = type(seq).term_grid(seq, np.arange(seq.n_min, sheets + 1), [z])[0]
        scale = math.fsum(np.abs(terms).tolist())
        exact = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
        assert abs(got.value - exact) <= 1e-14 * scale, z
    if max_terms >= stop:
        assert max(asked) == stop  # no sheet past the stop is ever computed
    else:
        assert max(asked) == max_terms


def test_no_sheet_past_the_furthest_stop_is_requested():
    # One block of 128 sheets (65-192) holds each of these stops; the block
    # is cut after the stop, for every group of points.
    for stop in (65, 100, 192):
        seq, asked = _spied(QLogModel(0.4 + 0.3j))
        zs = [complex(t, 0.1) for t in np.linspace(-0.8, 0.8, 3 * _FIRST_GROUP)]
        batch = evaluate_sums(seq, zs, tol=seq.decay_cert.tail(stop))
        assert {res.terms_used for res in batch} == {stop}
        assert max(asked) == stop
        assert sorted(set(asked)) == list(range(1, stop + 1))


def _eval_meander_points() -> list[complex]:
    """The 60 points of the eval-grid benchmark's eval-meander operation at seed 1."""
    rng = random.Random("eval-grid/1")
    zs = [0.3 + 0.2j]
    while len(zs) < 60:
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(z) < 1.5 and not (-1.06 <= z.real <= 0.01 and abs(z.imag) < 0.06):
            zs.append(z)
    return zs


def test_a_batch_searches_its_order_zero_stop_once():
    # Order 0 has one stop at every point, found before any term: one
    # search in all (600 calls of ``stop`` before lane state became arrays).
    # The four blocks of the 693 sheets go in 1 + 2 + 4 + 4 lane groups,
    # each one reduction of equal rows.
    seq = MeanderModel(0.95)
    with mock.patch.object(series._CertifiedStop, "stop", autospec=True, side_effect=series._CertifiedStop.stop) \
            as stop, mock.patch.object(seq, "term_grid", wraps=seq.term_grid) as grid, \
            mock.patch.object(series, "_block_sums", wraps=series._block_sums) as sums:
        batch = evaluate_sums(seq, _eval_meander_points(), tol=1e-10, max_terms=10_000)
    assert {res.terms_used for res in batch} == {693}
    assert stop.call_count == 1 and grid.call_count == 11 and sums.call_count == 11


def test_a_batch_keeps_its_traced_memory():
    # Peak of the eval-meander batch under tracemalloc, 351 KiB before lane
    # state became arrays (Python 3.11.7, numpy 2.4.6): within 10% of it.
    seq, zs = MeanderModel(0.95), _eval_meander_points()
    evaluate_sums(seq, zs, tol=1e-10, max_terms=10_000)
    tracemalloc.start()
    try:
        evaluate_sums(seq, zs, tol=1e-10, max_terms=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.10 * 351 * 1024
