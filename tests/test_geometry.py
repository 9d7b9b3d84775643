import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    ReciprocalPoles,
    RootsOfUnity,
    StackPoint,
    TableRadius,
    cauchy_radius_check,
    huygens_distance,
    nearest_root_of_unity,
    perforation_from_config,
    residual_membership,
    residual_memberships,
    shrink_check,
)
from meandro.covering import _PullbackPoles
from meandro.errors import ConfigError, OutOfRegime
from meandro.geometry import _tail_clears


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


def test_diophantine_radius_below_the_float_range_is_out_of_regime():
    # (n + shift)**alpha overflows from sheet 2 on at alpha = 2000: values
    # marks those sheets NaN, as a table marks an untabulated one, and the
    # scalar methods raise the error of the first.
    r = DiophantineRadius(0.05, 2000)
    assert r.value(1) == 0.05
    radii = r.values(np.arange(1, 65))
    assert radii[0] == 0.05 and np.isnan(radii[1:]).all()
    for call in (lambda: r.value(2), lambda: r.tail_sup(7)):
        with pytest.raises(OutOfRegime, match="below the float range on sheet 2 ") as info:
            call()
        assert info.value.witness["alpha"] == 2000.0


def test_integer_diophantine_exponent_gives_float_radii():
    # An int exponent once made numpy take integer powers of the sheets,
    # which wrap past 2**63 (negative radii from sheet 55 109 on at alpha 4).
    r = DiophantineRadius(0.05, 4)
    ns = np.arange(60_000, 60_003)
    assert r.values(ns) == pytest.approx([r.value(n) for n in ns.tolist()], rel=1e-15)
    # Squares stay exact in floats: alpha = 2 gives the radii of integer powers.
    assert DiophantineRadius(0.05, 2).values(np.arange(1, 1000)).tolist() == [
        0.05 / n**2 for n in range(1, 1000)
    ]


def test_diophantine_tail_needs_a_sheet():
    with pytest.raises(ValueError):
        DiophantineRadius(0.05, 2.0).tail_sup(0)
    assert DiophantineRadius(0.05, 2.0, shift=1).tail_sup(0) == 0.05


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


@pytest.mark.parametrize(
    "poles, z", [(RootsOfUnity(), 1.01 + 0j), (MeanderPoles(), -1.01 + 0j)], ids=["roots", "meander"]
)
def test_membership_rejects_a_negative_cutoff(poles, z):
    # Sheet 1's disc holds z; a negative cutoff must not vouch for it.
    perf = Perforation(poles, DiophantineRadius(0.05, 2.0))
    assert residual_membership(perf, z, cutoff=1).state is MembershipState.OUT
    with pytest.raises(ValueError):
        residual_membership(perf, z, cutoff=-5)


def test_membership_errors_in_sheet_order():
    # Radii are tabulated on sheets 1..5 only; the scan covers sheets 1..40.
    perf = Perforation(RootsOfUnity(), TableRadius({n: 0.05 for n in range(1, 6)}))
    out = residual_membership(perf, -0.99 + 0j, cutoff=40)
    assert (out.state, out.sheet) == (MembershipState.OUT, 2)
    assert out.pole == pytest.approx(-1 + 0j, abs=1e-15)
    with pytest.raises(ConfigError, match="sheet 6"):
        residual_membership(perf, 0.5 + 0j, cutoff=40)


def test_a_radius_below_the_float_range_is_the_error_of_each_point_that_meets_it():
    # Sheet 1's disc holds -1 + 0.01j; the other two points reach sheet 2,
    # whose radius is below the float range, and get its error as their entry.
    perf = Perforation(MeanderPoles(), DiophantineRadius(0.05, 2000))
    out, *errors = residual_memberships(perf, [-1 + 0.01j, -0.01, 0.3 + 0.3j])
    assert (out.state, out.sheet, out.pole) == (MembershipState.OUT, 1, -1)
    for err in errors:
        assert isinstance(err, OutOfRegime) and err.witness == {"sheet": 2, "alpha": 2000.0}
        assert str(err) == "the radius c/(n + shift)**alpha is below the float range on sheet 2 (alpha = 2000)"
    with pytest.raises(OutOfRegime, match="on sheet 2 "):
        residual_membership(perf, -0.01)


def test_the_verdict_at_the_cutoff_carries_the_rounding_slack():
    # |z| - 1 exceeds r_500 = 2e-7 by 2e-15, less than the 8*eps*(1 + |z| + d)
    # that covers float poles a few ulps off the circle, so the bound at the
    # cutoff cannot clear z.  The golden angle keeps z off every disc up to
    # the cutoff.
    perf = _qlog_perf(0.05)
    z = (1 + 2e-7 * (1 + 1e-8)) * cmath.exp(1j * math.pi * (math.sqrt(5) - 1))
    verdict = residual_membership(perf, z, cutoff=500)
    assert (verdict.state, verdict.note) == (MembershipState.UNKNOWN, "tail bound too weak at this cutoff")
    assert residual_membership(perf, z, cutoff=2000)


def _membership_reference(perf, z, cutoff, margin):
    """The sheet-by-sheet scan: every sheet's scalar nearest pole, in order."""
    family = perf.poles
    if family.parametric:
        sheets = range(family.n_min, cutoff + 1)
    else:
        sheets = [n for n in family.sheets() if n <= cutoff]
    for n in sheets:
        pole, dist = family.nearest_pole(n, z)
        if dist < perf.radius_at(n) * (1.0 + margin):
            return MembershipState.OUT, n, pole
    tail_dist = family.tail_distance_bound(z, cutoff)
    if tail_dist is None:
        return MembershipState.UNKNOWN, None, None
    if tail_dist == math.inf or tail_dist >= perf.radius.tail_sup(cutoff) * (1.0 + margin):
        return MembershipState.IN, None, None
    return MembershipState.UNKNOWN, None, None


def _explicit_family(seed: int) -> ExplicitPoles:
    """Sheets 0..299, about a third of them empty, poles near the unit circle."""
    rng = np.random.default_rng(seed)
    table = {}
    for n in range(300):
        count = int(rng.integers(0, 3))
        mods = rng.uniform(0.8, 1.2, count)
        table[n] = (mods * np.exp(1j * rng.uniform(0, math.tau, count))).tolist()
    return ExplicitPoles(table)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["roots", "meander", "explicit"]),
    seed=st.integers(0, 2**16),
    c=st.floats(0.01, 0.5),
    margin=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0),
    cutoff=st.sampled_from([64, 65, 200, 5000]),
    # Sheets at the ends of the first blocks and of the scan, or anywhere.
    sheet=st.sampled_from([1, 64, 65, 192, 193, 200, 201, 448, 449, 5000, 5001]) | st.integers(1, 6000),
    theta=st.floats(0.0, math.tau),
    depth=st.sampled_from([None, 1.0, 0.5]),
    z_free=st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
)
def test_block_membership_matches_sheet_by_sheet(kind, seed, c, margin, cutoff, sheet, theta, depth, z_free):
    if kind == "roots":
        perf = Perforation(RootsOfUnity(), DiophantineRadius(c, 2.0))
    elif kind == "meander":
        perf = Perforation(MeanderPoles(), DiophantineRadius(c, 2.0))
    else:
        perf = Perforation(_explicit_family(seed), DiophantineRadius(c, 2.0, shift=1))
    z = z_free
    poles = perf.poles_on_sheet(sheet)
    if depth is not None and len(poles):
        # On the rim of a removed disc inflated by the margin, or halfway in.
        pole = complex(poles[seed % len(poles)])
        z = pole + depth * perf.radius_at(sheet) * (1.0 + margin) * cmath.exp(1j * theta)
    got = residual_membership(perf, z, cutoff=cutoff, margin=margin)
    assert (got.state, got.sheet, got.pole) == _membership_reference(perf, z, cutoff, margin)


@pytest.mark.parametrize("kind", ["roots", "meander", "explicit"])
def test_block_membership_at_block_ends(kind):
    # Blocks of 64, 128 and 256 sheets end at sheets 64, 192 and 448.
    if kind == "roots":
        perf = Perforation(RootsOfUnity(), DiophantineRadius(0.05, 2.0))
    elif kind == "meander":
        perf = Perforation(MeanderPoles(), DiophantineRadius(0.05, 2.0))
    else:
        perf = Perforation(_explicit_family(7), DiophantineRadius(0.05, 2.0, shift=1))
    for sheet in (1, 63, 64, 65, 192, 193, 448, 449, 499, 500, 501):
        poles = perf.poles_on_sheet(sheet)
        if not len(poles):
            continue
        pole = complex(poles[1 % len(poles)])  # a primitive root for the roots of unity
        for margin in (0.0, 0.5):
            for depth in (1.0, 0.5):
                z = pole + depth * perf.radius_at(sheet) * (1.0 + margin) * 1j
                got = residual_membership(perf, z, cutoff=500, margin=margin)
                assert (got.state, got.sheet, got.pole) == _membership_reference(perf, z, 500, margin)
                if depth < 1.0 and sheet <= 500:
                    assert got.state is MembershipState.OUT


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["roots", "meander", "explicit"]),
    seed=st.integers(0, 2**16),
    margin=st.sampled_from([0.0, 0.5]),
    cutoff=st.sampled_from([64, 200]),
    # One lane group of the first block holds 64 points.
    count=st.sampled_from([1, 5, 63, 64, 65]),
)
def test_batched_membership_matches_sheet_by_sheet(kind, seed, margin, cutoff, count):
    if kind == "roots":
        perf = Perforation(RootsOfUnity(), DiophantineRadius(0.05, 2.0))
    elif kind == "meander":
        perf = Perforation(MeanderPoles(), DiophantineRadius(0.05, 2.0))
    else:
        perf = Perforation(_explicit_family(seed), DiophantineRadius(0.05, 2.0, shift=1))
    rng = np.random.default_rng(seed)
    zs = []
    while len(zs) < count:
        sheet = int(rng.integers(1, cutoff + 20))
        poles = perf.poles_on_sheet(sheet)
        if rng.uniform() < 0.5 and len(poles):
            # On or inside the rim of a removed disc inflated by the margin.
            depth = rng.choice([1.0, 0.5])
            rim = perf.radius_at(sheet) * (1.0 + margin) * cmath.exp(1j * rng.uniform(0, math.tau))
            zs.append(complex(poles[int(rng.integers(len(poles)))]) + depth * rim)
        else:
            zs.append(complex(*rng.uniform(-1.5, 1.5, 2)))
    got = residual_memberships(perf, zs, cutoff=cutoff, margin=margin)
    for z, verdict in zip(zs, got):
        assert (verdict.state, verdict.sheet, verdict.pole) == _membership_reference(perf, z, cutoff, margin)


def test_batched_membership_gives_each_point_its_missing_radius_error():
    # Sheet 2 has no tabulated radius: a point that sheet 1 does not block
    # reaches it, as a lone scan does, and gets the ConfigError.
    perf = Perforation(ExplicitPoles({1: [0.5], 2: [-0.5]}), TableRadius({1: 0.1}))
    zs = [0.52 + 0j, 0.9j, -0.5 + 0j]
    got = residual_memberships(perf, zs, cutoff=5)
    assert (got[0].state, got[0].sheet) == (MembershipState.OUT, 1)
    for z, verdict in zip(zs[1:], got[1:]):
        assert isinstance(verdict, ConfigError) and "sheet 2" in str(verdict)
        with pytest.raises(ConfigError, match="sheet 2"):
            residual_membership(perf, z, cutoff=5)


def test_block_membership_on_a_rim_where_numpy_rounds_the_pole_apart():
    # Sheet 1002's pole 145: numpy's exp(2j*pi*k/n) lands about 1e-16 from
    # cmath's, more than the relative slack r_n*1e-9 at r_n = 5e-8.  z lies
    # just inside the scalar disc and just outside the numpy one.
    perf = Perforation(RootsOfUnity(), DiophantineRadius(0.05, 2.0))
    n, k = 1002, 145
    z = complex(0.6143428906703507, 0.78903917835962)
    pole, dist = perf.nearest_pole(n, z)
    _, dists = perf.poles.nearest_pole_all(np.array([n]), z)
    assert pole == cmath.exp(2j * math.pi * k / n)
    assert dist < perf.radius_at(n) * (1.0 + 1e-9) <= dists[0]
    got = residual_membership(perf, z, cutoff=2000)
    assert (got.state, got.sheet, got.pole) == (MembershipState.OUT, n, pole)
    assert (got.state, got.sheet, got.pole) == _membership_reference(perf, z, 2000, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["roots", "meander", "reciprocal", "explicit"]),
    z=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    cutoff=st.integers(0, 400),
    extra=st.integers(1, 5000),
    c=st.floats(0.01, 1.0),
    alpha=st.floats(1.0, 3.0),
)
def test_tail_bounds_keep_their_contract(kind, z, cutoff, extra, c, alpha):
    family = {
        "roots": RootsOfUnity(),
        "meander": MeanderPoles(),
        "reciprocal": ReciprocalPoles(),
        "explicit": _explicit_family(cutoff),
    }[kind]
    # The distance bound holds for every pole of the next 200 sheets, up to
    # the rounding of the float poles, and grows with the cutoff.
    d = family.tail_distance_bound(z, cutoff)
    if d is not None:
        for n in range(max(cutoff + 1, family.n_min), cutoff + 201):
            _, dist = family.nearest_pole(n, z)
            assert d <= dist + 8 * np.finfo(float).eps * (1.0 + abs(z) + dist)
        later = family.tail_distance_bound(z, cutoff + extra)
        assert later is not None and later >= d
    # The radius bound holds on those sheets and shrinks with the cutoff.
    radius = DiophantineRadius(c, alpha, shift=1)
    r = radius.tail_sup(cutoff)
    assert all(radius.value(n) <= r for n in range(cutoff + 1, cutoff + 201))
    assert radius.tail_sup(cutoff + extra) <= r


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["roots", "meander", "reciprocal", "explicit", "pullback"]),
    z=st.one_of(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.floats(0.0, 2.0).map(complex),
        st.just(0j),
    ),
)
def test_distance_power_laws_keep_their_contract(kind, z):
    family = {
        "roots": RootsOfUnity(),
        "meander": MeanderPoles(),
        "reciprocal": ReciprocalPoles(),
        "explicit": _explicit_family(7),
        "pullback": _PullbackPoles(MeanderPoles(), 2, 0j),
    }[kind]
    law = family.distance_power_law(z)
    if law is None:
        return
    a, beta = law
    assert a > 0 and beta > 0
    # Every pole of sheets 1..2000, up to the rounding of the float poles.
    ns = np.arange(max(family.n_min, 1), 2001)
    _, dist = family.nearest_pole_all(ns, z)
    assert np.all(a * ns**-beta <= dist + 8 * np.finfo(float).eps * (1.0 + abs(z) + dist))


def test_power_law_of_the_meander():
    family = MeanderPoles()
    assert family.distance_power_law(0j) == (1.0, 1.0)
    assert family.distance_power_law(0.3 - 0.2j) == (1.0, 1.0)
    assert family.distance_power_law(-0.01 + 0.5j) is None  # tail_distance_bound serves there
    assert RootsOfUnity().distance_power_law(1 + 0j) is None  # a float angle has no Diophantine type
    # A pullback's norm bound is the base bound, which holds off the base
    # discs, not off the smaller discs about the preimages: no law there.
    assert _PullbackPoles(MeanderPoles(), 2, 0j).distance_power_law(0j) is None


def _sheets_scanned(monkeypatch) -> list[int]:
    """Patch ``Perforation.first_blocked_all`` to record how many sheets each call is given."""
    counts = []
    scan = Perforation.first_blocked_all

    def counting(self, ns, zs, margin=0.0, ends=None):
        counts.append(len(ns))
        return scan(self, ns, zs, margin, ends)

    monkeypatch.setattr(Perforation, "first_blocked_all", counting)
    return counts


@pytest.mark.parametrize("gap, most", [(0.3, 64), (-0.3, 64), (1e-6, 448), (-1e-6, 448)])
def test_membership_scan_stops_once_the_tail_bound_clears(monkeypatch, gap, most):
    # Blocks of 64, 128 and 256 sheets end at sheets 64, 192 and 448; past
    # sheet 448, r_n = 0.05/n**2 < 2.5e-7 is below a gap of 1e-6.
    perf = _qlog_perf(0.05)
    z = (1.0 + gap) * cmath.exp(1j)
    counts = _sheets_scanned(monkeypatch)
    assert residual_membership(perf, z, cutoff=10_000).state is MembershipState.IN
    assert sum(counts) <= most
    if abs(gap) > 0.1:
        assert sum(counts) == 64


def test_membership_scan_runs_to_the_cutoff_while_the_tail_bound_is_weak(monkeypatch):
    perf = _qlog_perf(0.05)
    counts = _sheets_scanned(monkeypatch)
    verdict = residual_membership(perf, (1.0 + 1e-7) * cmath.exp(1j), cutoff=500)
    assert verdict.state is MembershipState.UNKNOWN
    assert sum(counts) == 500


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


def _cauchy_pairs_reference(perf, cutoff, same=0.0):
    """Brute-force pair scan: the first pole pair, in sheet order, that violates the condition.

    Poles closer than ``same`` count as one projection and are exempt.
    """
    family = perf.poles
    if family.parametric:
        sheets = range(family.n_min, cutoff + 1)
    else:
        sheets = [m for m in family.sheets() if m <= cutoff]
    entries = []
    for n in sheets:
        entries.extend((n, complex(p), perf.radius_at(n)) for p in perf.poles_on_sheet(n))
    for i, (n, p, rp) in enumerate(entries):
        for m, q, rq in entries[i + 1 :]:
            if same < abs(p - q) < perf.lam * (rp + rq):
                return CauchyState.REFUTED, (StackPoint(n, p), StackPoint(m, q))
    return CauchyState.VERIFIED, None


def _cauchy_roots_reference(perf, cutoff):
    """Sheet pairs (m, n), m <= n, in the scalar order of the closed-form chord test."""
    lam = perf.lam
    for n in range(1, cutoff + 1):
        r_n = perf.radius_at(n)
        if n >= 2 and 2.0 * math.sin(math.pi / n) < 2.0 * lam * r_n:
            return n, n
        for m in range(1, n):
            if 2.0 * math.sin(math.pi * math.gcd(n, m) / (n * m)) < lam * (r_n + perf.radius_at(m)):
                return m, n
    return None


@settings(max_examples=60, deadline=None)
@given(
    sheets=st.lists(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=4, unique=True),
        min_size=1,
        max_size=8,
    ),
    radii=st.lists(st.floats(0.001, 0.2), min_size=8, max_size=8),
    cutoff=st.integers(0, 8),
)
def test_cauchy_explicit_matches_pair_scan(sheets, radii, cutoff):
    # Poles on a coarse lattice, so that sheets share projections.
    table = {n: [complex(a, b) / 4 for a, b in ps] for n, ps in enumerate(sheets, start=1)}
    perf = Perforation(ExplicitPoles(table), TableRadius(dict(enumerate(radii, start=1))))
    flag = cauchy_radius_check(perf, cutoff)
    assert (flag.state, flag.witness) == _cauchy_pairs_reference(perf, cutoff)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(0.01, 0.6), alpha=st.floats(1.0, 3.0), cutoff=st.integers(1, 14))
def test_cauchy_roots_matches_pair_scan(c, alpha, cutoff):
    perf = Perforation(RootsOfUnity(), DiophantineRadius(c, alpha))
    table = {n: perf.poles_on_sheet(n).tolist() for n in range(1, cutoff + 1)}
    pairs = Perforation(ExplicitPoles(table), perf.radius)
    flag = cauchy_radius_check(perf, cutoff)
    # A root shared by two sheets is computed on each up to rounding.
    assert flag.state is _cauchy_pairs_reference(pairs, cutoff, same=1e-12)[0]
    want = _cauchy_roots_reference(perf, cutoff)
    if want is None:
        assert flag.witness is None
    else:
        a, b = flag.witness
        assert (a.sheet, b.sheet) == want
        assert abs(a.coord - b.coord) < perf.lam * (perf.radius_at(a.sheet) + perf.radius_at(b.sheet))


@settings(max_examples=30, deadline=None)
@given(
    beta=st.sampled_from([None, 2, 3]),
    c=st.floats(0.01, 0.9),
    alpha=st.floats(1.0, 3.0),
    lam=st.floats(1.01, 3.0),
    cutoff=st.integers(0, 300),
)
def test_cauchy_meander_and_pullback_match_pair_scan(beta, c, alpha, lam, cutoff):
    family = MeanderPoles() if beta is None else _PullbackPoles(MeanderPoles(), beta, 0.1 + 0.05j)
    perf = Perforation(family, DiophantineRadius(c, alpha, lam))
    flag = cauchy_radius_check(perf, cutoff)
    assert (flag.state, flag.witness) == _cauchy_pairs_reference(perf, cutoff)


def _vertical_line(close: dict[int, float] | None = None) -> Perforation:
    """500 poles near Re z = 0.3, one per sheet, 0.01 apart, radii 0.001.

    Real parts fall by 1e-12 a sheet, so the sweep meets them in reverse
    sheet order.  ``close`` moves the poles of some sheets to given heights.
    """
    heights = {n: 0.01 * n for n in range(1, 501)}
    heights.update(close or {})
    table = {n: [complex(0.3 - 1e-12 * n, y)] for n, y in heights.items()}
    return Perforation(ExplicitPoles(table), TableRadius({n: 0.001 for n in table}))


@pytest.mark.parametrize(
    "close",
    [
        None,
        # Entry 131 (sheet 132) starts pairs 65 500..65 999, across the end of
        # the first chunk of 65 536 pairs: its partners at sheets 471 (in the
        # first chunk) and 201 (in the second) both violate, and 201 comes
        # first in sheet order.
        {201: 1.3205, 471: 1.3195},
        {3: 0.0405},
        {499: 4.9995},
    ],
    ids=["verified", "witness-across-chunks", "early", "last-pair"],
)
def test_cauchy_sweep_on_a_vertical_line(close):
    # Every pole shares the real part to 5e-10, so the candidate pairs number
    # 500**2 = 250 000, more than one chunk of 65 536.
    perf = _vertical_line(close)
    flag = cauchy_radius_check(perf, 500)
    assert (flag.state, flag.witness) == _cauchy_pairs_reference(perf, 500)
    assert (flag.state is CauchyState.VERIFIED) == (close is None)


def test_cauchy_missing_radius_is_the_config_error_of_its_sheet():
    # As in the sheet-by-sheet scan: the first listed sheet without a radius
    # raises, even if it has no poles, before any pair is compared.
    poles = ExplicitPoles({1: [0j, 0.01 + 0j], 2: [], 3: [1 + 0j], 4: [2 + 0j]})
    perf = Perforation(poles, TableRadius({1: 0.1, 3: 0.1}))
    with pytest.raises(ConfigError, match="no radius tabulated for sheet 2"):
        cauchy_radius_check(perf, 4)
    assert cauchy_radius_check(perf, 1).state is CauchyState.REFUTED
    meander = Perforation(MeanderPoles(), TableRadius({n: 1e-4 for n in range(1, 6)}))
    assert cauchy_radius_check(meander, 5).state is CauchyState.VERIFIED
    with pytest.raises(ConfigError, match="no radius tabulated for sheet 6"):
        cauchy_radius_check(meander, 9)


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


# ---------------------------------------------------------------------------
# Clearance from the poles' distance power law
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    c=st.floats(0.01, 1.0),
    alpha=st.floats(1.0, 3.0),
    lam=st.floats(1.01, 3.0),
    shift=st.integers(0, 3),
    z=st.one_of(
        st.just(0j),
        st.builds(complex, st.floats(0.0, 1e-12), st.floats(-1e-12, 1e-12)),  # tiny |z|
        st.builds(complex, st.floats(0.0, 1e-6), st.floats(-1.0, 1.0)),  # just right of the imaginary axis
    ),
    sheet=st.one_of(st.integers(1, 8), st.integers(1, 2000)),
    span=st.integers(0, 3000),
    margin=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
)
@example(c=1.0, alpha=2.0, lam=1.5, shift=0, z=0j, sheet=1, span=100, margin=3.0)  # discs hold 0 on sheets 2, 3
def test_power_law_clearance_holds_on_every_sheet_up_to_the_last(c, alpha, lam, shift, z, sheet, span, margin):
    # The meander's poles -1/n accumulate at 0, where the law |z + 1/n| >= 1/n
    # holds for Re z >= 0.  At margin 0 no disc reaches such a point (c <= 1),
    # and only rounding is at stake; larger discs reach it on early sheets.
    perf = Perforation(MeanderPoles(), DiophantineRadius(c, alpha, lam, shift))
    last = min(sheet + span, 5000)
    if _tail_clears(perf, z, sheet, margin, last):
        assert perf.first_blocked_all(np.arange(sheet + 1, last + 1), [z], margin) == [None]


def test_power_law_clears_an_accumulation_point_only_when_given_the_last_sheet():
    perf = Perforation(MeanderPoles(), DiophantineRadius(0.05, 2.0))
    assert _tail_clears(perf, 0j, 64, 0.0, 200_000)
    assert not _tail_clears(perf, 0j, 64, 0.0)  # the residual scan's test: no law
    assert not _tail_clears(perf, -1e-3 + 0j, 64, 0.0, 200_000)  # Re z < 0: no law
    # c = 1 and alpha = 1: the discs reach as far as the law's bound.
    assert not _tail_clears(Perforation(MeanderPoles(), DiophantineRadius(1.0, 1.0)), 0j, 64, 0.0, 200_000)


def test_power_law_clearance_past_the_float_range_is_false():
    # 1209**100 is a float and 1210**100 is not.
    perf = Perforation(MeanderPoles(), DiophantineRadius(0.05, 100.0))
    assert _tail_clears(perf, 0j, 64, 0.0, 1209)
    assert not _tail_clears(perf, 0j, 64, 0.0, 1210)
