"""Stages 1, 2 and 4 over a sweep against one-point calls.

conductivity and conductivity_slope take a whole sweep in one call; each
element must carry the bits of its one-point call.  The dispersion layer
(wavenumber, transverse_q0, group_velocity, solve_mode) must agree with
one-point calls to within 4 ulp.  The sweeps straddle the interband edge
hbar*omega = 2*mu, at 300 K and at 4 K, where 'auto' takes the full form
at every frequency, as at 300 K.  The prism's spacing sweeps
(overlap_sweep at one frequency and at each spacing's matching_frequency
dip) solve every spacing in one batch; each beta must carry the bits of
overlap_beta at its spacing and frequency.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import overlap_beta_oracle
from gspp.dispersion import group_velocity, solve_mode, transverse_q0, wavenumber
from gspp.material import CONSTANTS, GrapheneParams, conductivity, conductivity_slope
from gspp.prism import (PrismGeometry, ValidityWarning, matching_frequency, overlap_beta,
                        overlap_sweep)

ULPS = 4


def assert_within_ulps(got, want, what):
    """Real and imaginary parts each within ULPS ulp of want's, nan where
    want is nan."""
    for part in (np.real, np.imag):
        g, w = part(got), part(want)
        if math.isnan(w):
            assert math.isnan(g), what
        else:
            assert abs(g - w) <= ULPS * np.spacing(abs(w)), (what, got, want)


@settings(max_examples=100, deadline=None)
@given(temperature=st.sampled_from([300.0, 4.0]), mu_c=st.floats(0.05, 1.0),
       model=st.sampled_from(["auto", "full", "low"]), n_layers=st.integers(1, 3),
       eps_r=st.sampled_from([1.0, 2.25]),
       below=st.lists(st.floats(0.05, 0.999), min_size=1, max_size=4),
       above=st.lists(st.floats(1.001, 3.0), min_size=1, max_size=4),
       order=st.randoms(use_true_random=False))
def test_sweep_matches_one_point_calls(temperature, mu_c, model, n_layers, eps_r, below,
                                       above, order):
    params = replace(GrapheneParams.with_default_rates(mu_c, temperature, eps_r, n_layers),
                     conductivity_model=model)
    ratios = below + above
    order.shuffle(ratios)
    edge = 2.0 * mu_c * CONSTANTS.e / CONSTANTS.hbar  # hbar*omega = 2*mu
    omegas = edge * np.array(ratios)

    # one element: the scalar call's bits
    one = conductivity(params, omegas[:1])
    assert one.value[0] == conductivity(params, float(omegas[0])).value

    sigmas = [conductivity(params, w) for w in omegas.tolist()]
    sweep = conductivity(params, omegas)
    for i, sigma in enumerate(sigmas):
        assert sweep.value[i] == sigma.value, (omegas[i], sweep.value[i], sigma.value)

    slope = conductivity_slope(params, sweep)
    slopes = [conductivity_slope(params, sigma) for sigma in sigmas]
    assert np.array_equal(slope, slopes)
    one_slope = conductivity_slope(params, conductivity(params, omegas[:1]))
    assert one_slope[0] == slopes[0]

    for pol in ("TM", "TE"):
        k = wavenumber(pol, sweep, eps_r)
        q0 = transverse_q0(pol, sweep, eps_r)
        v_g = group_velocity(params, sweep, pol)
        mode = solve_mode(params, sweep, pol)
        for i, sigma in enumerate(sigmas):
            at = f"{pol} at {omegas[i]:.6e} rad/s"
            assert_within_ulps(k[i], wavenumber(pol, sigma, eps_r), f"k {at}")
            assert_within_ulps(q0[i], transverse_q0(pol, sigma, eps_r), f"q0 {at}")
            assert_within_ulps(v_g[i], group_velocity(params, sigma, pol), f"v_g {at}")
            point = solve_mode(params, sigma, pol)
            assert mode.supported[i] == point.supported, at
            for name in ("k", "q0", "v_g"):
                assert_within_ulps(getattr(mode, name)[i], getattr(point, name), f"{name} {at}")
        first = solve_mode(params, conductivity(params, omegas[:1]), pol)
        point = solve_mode(params, sigmas[0], pol)
        for name in ("k", "q0", "v_g"):
            assert_within_ulps(getattr(first, name)[0], getattr(point, name), f"one-element {name}")


def test_cold_sweep_runs_on_one_backend():
    # 4 K, 0.05 eV: 'auto' takes the full form at every frequency.  A
    # per-frequency rule handed over to the closed form, which drops the
    # interband broadening, where kB*T = 0.01*hbar*omega (8.3346 THz): Re sigma
    # fell 11-fold there, and TM kappa'' from 2.35 at 8 THz to 0.247 at 9 THz
    params = GrapheneParams.with_default_rates(0.05, 4.0)
    pinned = replace(params, conductivity_model="full")
    handover = 100.0 * CONSTANTS.kB * 4.0 / CONSTANTS.hbar
    omegas = handover * np.array([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 1.5, 3.0])
    sweep = conductivity(params, omegas)
    assert np.array_equal(sweep.value, conductivity(pinned, omegas).value)
    assert np.array_equal(conductivity_slope(params, sweep), conductivity_slope(pinned, sweep))
    below, above = sweep.value[1:3]
    assert abs(above - below) <= 1e-6 * abs(below), (below, above)

    omegas = 2.0 * math.pi * np.array([8e12, 9e12])
    mode = solve_mode(params, conductivity(params, omegas), "TM")
    kappa2 = mode.k.imag * CONSTANTS.c0 / omegas
    assert kappa2[1] > kappa2[0], kappa2


@pytest.mark.parametrize("temperature", [300.0, 4.0, 0.0])
def test_empty_sweep(temperature):
    params = GrapheneParams.with_default_rates(0.5, temperature)
    sweep = conductivity(params, np.array([]))
    slope = conductivity_slope(params, sweep)
    assert sweep.value.shape == slope.shape == (0,)
    assert sweep.value.dtype == slope.dtype == complex


# each polarization's fig4b coupler: (mu_c eV, T K) of a sheet whose
# sigma'' supports it, the incidence angle (deg), the spacings' lower end,
# the figure's beta peak and upper end (um), the frequency window (THz) and
# the dip scan's points
COUPLERS = {
    "TM": ((0.5, 300.0), 64.0, (5.0, 45.0, 200.0), (0.3, 1.5), 200),
    "TE": ((1.24, 0.0), 54.74, (15.0, 26.0, 40.0), (590.5, 591.1), 300),
}


@settings(max_examples=30, deadline=None)
@given(pol=st.sampled_from(["TM", "TE"]),
       below=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=8),
       above=st.lists(st.floats(0.001, 1.0), min_size=1, max_size=8),
       f_frac=st.floats(0.0, 1.0), order=st.randoms(use_true_random=False))
def test_coupler_sweeps_match_one_point_calls(pol, below, above, f_frac, order):
    (mu_c, temperature), theta_deg, (d_lo, d_peak, d_hi), (f_lo, f_hi), n_scan = COUPLERS[pol]
    params = GrapheneParams.with_default_rates(mu_c, temperature)
    spacings = ([d_lo + x * (d_peak - d_lo) for x in below]
                + [d_peak + x * (d_hi - d_peak) for x in above])
    order.shuffle(spacings)
    ds = np.array(spacings) * 1e-6
    geom = PrismGeometry(eps1=1.5, d=ds, theta_i=math.radians(theta_deg), polarization=pol)
    omega = 2.0 * math.pi * (f_lo + f_frac * (f_hi - f_lo)) * 1e12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        betas = overlap_sweep(geom, params, omega)[0]
        dips = matching_frequency(geom, params, 2.0 * math.pi * f_lo * 1e12,
                                  2.0 * math.pi * f_hi * 1e12, n_scan=n_scan)
        matched = overlap_sweep(geom, params, dips)[0]
        points = []
        for d, beta in zip(ds.tolist(), betas):
            assert beta == overlap_beta(replace(geom, d=d), params, omega), d
            points.append((d, omega, beta))
        for d, w, beta in zip(ds.tolist(), dips.tolist(), matched):
            if math.isnan(w):
                assert beta == 0.0
                continue
            assert beta == overlap_beta(replace(geom, d=d), params, w), (d, w)
            points.append((d, w, beta))
    # the closed form against the sampled quadrature, at the tolerance of
    # the fig4b points: both sweeps' first spacing and the last matched point
    for d, w, beta in (points[0], points[len(ds)], points[-1]):
        ref = overlap_beta_oracle(replace(geom, d=d), params, w, n_points=1024)
        assert abs(beta - ref) <= 1e-9 * abs(ref), (d, w)
