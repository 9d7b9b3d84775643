import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandro import (
    CauchyState,
    DiophantineRadius,
    Disc,
    ExplicitPoles,
    MarginViolated,
    MeanderPoles,
    MembershipState,
    NotContained,
    Perforation,
    Rectangle,
    RootsOfUnity,
    StackPoint,
    TableRadius,
    cauchy_radius_check,
    huygens_distance,
    nearest_root_of_unity,
    perforation_from_config,
    residual_membership,
    shrink_check,
)
from meandro.errors import ConfigError


# ---------------------------------------------------------------------------
# StackPoint and radius functions
# ---------------------------------------------------------------------------


def test_stack_point_validation():
    StackPoint(3, 0.5 + 0.5j)
    with pytest.raises(ValueError):
        StackPoint(-1, 0j)
    with pytest.raises(ValueError):
        StackPoint(0, complex("inf"))


def test_diophantine_radius_values():
    r = DiophantineRadius(0.1, 2.0, lam=1.5)
    assert r.value(1) == 0.1
    assert r.value(10) == pytest.approx(1e-3)
    assert r.tail_sup(100) == pytest.approx(1e-5)
    with pytest.raises(ValueError):
        DiophantineRadius(1.5, 2.0)  # radius on sheet 1 would exceed 1
    with pytest.raises(ValueError):
        DiophantineRadius(0.1, 0.5)  # exponent below 1
    with pytest.raises(ValueError):
        DiophantineRadius(0.1, 2.0, lam=1.0)


def test_table_radius_cannot_discharge_tail():
    r = TableRadius({1: 0.1, 2: 0.05}, lam=1.5)
    assert r.value(2) == 0.05
    assert r.tail_sup(2) is None
    with pytest.raises(ConfigError):
        r.value(3)


# ---------------------------------------------------------------------------
# Huygens distance
# ---------------------------------------------------------------------------


def test_huygens_concentric_discs():
    assert huygens_distance(Disc(0j, 1.0), Disc(0j, 2.0)) == 1.0


def test_huygens_offset_disc():
    assert huygens_distance(Disc(0.5 + 0j, 0.1), Disc(0j, 1.0)) == pytest.approx(0.4)


def test_huygens_rectangle_in_disc():
    # Worst point is a corner at distance sqrt(2)/2 from the origin.
    got = huygens_distance(Rectangle(-0.5, 0.5, -0.5, 0.5), Disc(0j, 2.0))
    assert got == pytest.approx(2.0 - math.sqrt(2.0) / 2.0, abs=1e-10)


def test_huygens_not_contained():
    with pytest.raises(NotContained):
        huygens_distance(Disc(1.5 + 0j, 1.0), Disc(0j, 2.0))


@settings(max_examples=50, deadline=None)
@given(
    r_u=st.floats(0.05, 0.5),
    gap1=st.floats(0.01, 1.0),
    gap2=st.floats(0.01, 1.0),
    off=st.complex_numbers(max_magnitude=0.2, allow_nan=False, allow_infinity=False),
)
def test_huygens_monotone_in_outer_set(r_u, gap1, gap2, off):
    # W inside V implies delta(U, W) <= delta(U, V).
    U = Disc(off, r_u)
    r_w = abs(off) + r_u + gap1
    W = Disc(0j, r_w)
    V = Disc(0j, r_w + gap2)
    assert huygens_distance(U, W) <= huygens_distance(U, V) + 1e-12


# ---------------------------------------------------------------------------
# Nearest root of unity
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 512),
    z=st.complex_numbers(min_magnitude=1e-3, max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_nearest_root_matches_brute_force(n, z):
    _, pole = nearest_root_of_unity(n, z)
    roots = np.exp(2j * math.pi * np.arange(n) / n)
    assert abs(z - pole) <= float(np.min(np.abs(z - roots))) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(1, 5000),
    z=st.sampled_from([0j, 1j, -1 + 0j, -0.5 + 0j])
    | st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_nearest_pole_all_matches_scalar(start, z):
    ns = np.arange(start, start + 64)
    for family in (RootsOfUnity(), MeanderPoles()):
        poles, dists = family.nearest_pole_all(ns, z)
        for n, pole, dist in zip(ns.tolist(), poles, dists):
            want_pole, want_dist = family.nearest_pole(n, z)
            assert abs(pole - want_pole) <= 1e-12
            assert dist == pytest.approx(want_dist, rel=1e-12, abs=1e-15)


def test_pole_families_compare_by_value():
    assert RootsOfUnity() == RootsOfUnity() and MeanderPoles() == MeanderPoles()
    assert RootsOfUnity() != MeanderPoles()
    a = ExplicitPoles({1: [1 + 0j], 2: [2 + 0j]})
    same = ExplicitPoles({2: [2.0], 1: [1.0]})
    assert a == same and hash(a) == hash(same)
    assert a != ExplicitPoles({1: [1 + 0j], 2: [-2 + 0j]})
    assert a != ExplicitPoles({1: [1 + 0j]})


def test_nearest_root_tie_is_deterministic():
    # Exactly between the two square roots of unity: banker's rounding picks k=0.
    k, pole = nearest_root_of_unity(2, 1j)
    assert (k, pole) == (0, 1 + 0j)
    assert nearest_root_of_unity(2, 1j) == (k, pole)


# ---------------------------------------------------------------------------
# Shrink check
# ---------------------------------------------------------------------------


def test_shrink_single_pole_margin():
    perf = Perforation(ExplicitPoles({1: [0j]}), TableRadius({1: 0.1}, lam=1.5))
    report = shrink_check(perf, Disc(0j, 1.0), Disc(0j, 2.0), 1)
    # One pole: the clearance is exactly eps*r = 0.05 up to rounding.
    assert report.clearance == pytest.approx(0.05, abs=1e-9)
    assert report.required == pytest.approx(0.05)


def test_shrink_qlog_sheets():
    perf = Perforation(RootsOfUnity(), DiophantineRadius(0.05, 2.0, lam=1.5))
    for n in range(1, 21):
        report = shrink_check(perf, Disc(0j, 1.2), Disc(0j, 1.8), n)
        assert report.clearance >= report.required - 1e-9


def test_shrink_flags_lambda_violation():
    perf = Perforation(
        ExplicitPoles({1: [0j, 0.15 + 0j]}), TableRadius({1: 0.1}, lam=1.5)
    )
    with pytest.raises(MarginViolated) as err:
        shrink_check(perf, Disc(0j, 1.0), Disc(0j, 2.0), 1)
    assert err.value.clearance < err.value.required


def test_shrink_requires_wide_enough_pair():
    perf = Perforation(ExplicitPoles({1: [0j]}), TableRadius({1: 0.1}, lam=1.5))
    with pytest.raises(ValueError):
        shrink_check(perf, Disc(0j, 1.0), Disc(0j, 1.2), 1)  # delta = 0.2 < 0.5


# ---------------------------------------------------------------------------
# Residual membership
# ---------------------------------------------------------------------------


def _qlog_perf(c=0.1, alpha=2.0, lam=1.5):
    return Perforation(RootsOfUnity(), DiophantineRadius(c, alpha, lam))


def test_membership_origin_is_in():
    assert residual_membership(_qlog_perf(), 0j, cutoff=500)


def test_membership_pole_is_out():
    verdict = residual_membership(_qlog_perf(), 1 + 0j, cutoff=500)
    assert verdict.state is MembershipState.OUT
    assert verdict.sheet == 1 and verdict.pole == 1 + 0j


def test_membership_ray_point_scan():
    z = 1.05 * cmath.exp(2j * math.pi * math.sqrt(2))
    verdict = residual_membership(_qlog_perf(0.05), z, cutoff=100_000)
    assert verdict.state is MembershipState.IN


def test_membership_unknown_on_circle():
    verdict = residual_membership(_qlog_perf(0.05), cmath.exp(0.5j), cutoff=50)
    assert verdict.state is MembershipState.UNKNOWN


def test_membership_table_radius_unknown_tail():
    perf = Perforation(
        RootsOfUnity(), TableRadius({n: 0.05 / n**2 for n in range(1, 21)}, lam=1.5)
    )
    verdict = residual_membership(perf, 0.5 + 0j, cutoff=20)
    assert verdict.state is MembershipState.UNKNOWN


def test_membership_explicit_family_is_decidable():
    perf = Perforation(
        ExplicitPoles({1: [1 + 0j], 4: [0.5j]}), TableRadius({1: 0.1, 4: 0.1}, lam=1.5)
    )
    assert residual_membership(perf, -1 + 0j, cutoff=10)
    out = residual_membership(perf, 0.52j, cutoff=10)
    assert out.state is MembershipState.OUT and out.sheet == 4


@settings(max_examples=40, deadline=None)
@given(
    z=st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    m_small=st.floats(0.0, 0.5),
    m_extra=st.floats(0.01, 1.0),
)
def test_membership_monotone_in_margin(z, m_small, m_extra):
    perf = _qlog_perf(0.05)
    big = residual_membership(perf, z, cutoff=200, margin=m_small + m_extra)
    if big.state is MembershipState.IN:
        assert residual_membership(perf, z, cutoff=200, margin=m_small).state is MembershipState.IN


# ---------------------------------------------------------------------------
# Cauchy radius check
# ---------------------------------------------------------------------------


def test_cauchy_meander_verified_to_100():
    perf = Perforation(MeanderPoles(), DiophantineRadius(0.1, 2.0, lam=1.5))
    flag = cauchy_radius_check(perf, 100)
    assert flag.state is CauchyState.VERIFIED and flag.cutoff == 100


def test_cauchy_qlog_large_c():
    """Oracle-resolved behaviour for c = 0.4: fine to sheet 6, refuted at 11.

    The brute-force pairwise scan (below) shows every projected-disc pair up
    to sheet 6 is disjoint with margin ~0.168; the first violation pairs the
    sheet-1 pole 1 with the primitive 11-th root of unity.
    """
    perf = Perforation(RootsOfUnity(), DiophantineRadius(0.4, 2.0, lam=1.5))
    assert cauchy_radius_check(perf, 6).state is CauchyState.VERIFIED
    flag = cauchy_radius_check(perf, 11)
    assert flag.state is CauchyState.REFUTED
    sheets = sorted((flag.witness[0].sheet, flag.witness[1].sheet))
    assert sheets == [1, 11]
    a, b = flag.witness
    assert abs(a.coord - b.coord) < 1.5 * (0.4 + 0.4 / 121)


def test_cauchy_matches_brute_force_small_cutoffs():
    lam = 1.5
    for c, cutoff in ((0.4, 6), (0.4, 11), (0.1, 8)):
        perf = Perforation(RootsOfUnity(), DiophantineRadius(c, 2.0, lam=lam))
        got = cauchy_radius_check(perf, cutoff).state
        # brute force over every pole pair with distinct projections
        entries = []
        for n in range(1, cutoff + 1):
            rn = c / n**2
            entries.extend((cmath.exp(2j * math.pi * k / n), rn) for k in range(n))
        ok = True
        for i in range(len(entries)):
            p, rp = entries[i]
            for j in range(i + 1, len(entries)):
                q, rq = entries[j]
                if abs(p - q) < 1e-12:
                    continue
                if abs(p - q) < lam * (rp + rq):
                    ok = False
        assert got is (CauchyState.VERIFIED if ok else CauchyState.REFUTED)


def test_cauchy_explicit_tiny_radii_verified():
    perf = Perforation(
        ExplicitPoles({1: [0j], 2: [1 + 0j], 3: [2 + 0j]}),
        TableRadius({1: 1e-3, 2: 1e-3, 3: 1e-3}, lam=1.5),
    )
    assert cauchy_radius_check(perf, 3).state is CauchyState.VERIFIED


def test_lambda_radius_witness():
    perf = Perforation(
        ExplicitPoles({1: [0j, 0.15 + 0j]}), TableRadius({1: 0.1}, lam=1.5)
    )
    flag = cauchy_radius_check(perf, 1)
    assert flag.state is CauchyState.REFUTED
    a, b = flag.witness
    assert a.sheet == b.sheet == 1
    assert {a.coord, b.coord} == {0j, 0.15 + 0j}


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


def test_perforation_from_config_roundtrip():
    perf = perforation_from_config(
        {"poles": "roots_of_unity", "radius": {"c": 0.05, "alpha": 2}, "lambda": 1.5}
    )
    assert isinstance(perf.poles, RootsOfUnity)
    assert perf.radius_at(2) == pytest.approx(0.0125)

    perf2 = perforation_from_config(
        {
            "poles": {"explicit": [[1, 1.0, 0.0], [1, -1.0, 0.0], [3, 0.0, 0.5]]},
            "radius": {"table": {"1": 0.1, "3": 0.2}},
            "lambda": 2.0,
        }
    )
    assert perf2.lam == 2.0
    assert len(perf2.poles_on_sheet(1)) == 2


@pytest.mark.parametrize(
    "config",
    [
        {"poles": "meander", "radius": {"c": 0.05, "alpha": 2}},  # missing lambda
        {"poles": "nope", "radius": {"c": 0.05, "alpha": 2}, "lambda": 1.5},
        {"poles": "meander", "radius": {"c": -1, "alpha": 2}, "lambda": 1.5},
        {"poles": "meander", "radius": {"c": 0.05, "alpha": 2}, "lambda": 0.9},
    ],
)
def test_perforation_config_rejected(config):
    with pytest.raises(ConfigError):
        perforation_from_config(config)
