"""Gaussian copula quadrature against closed-form oracles."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import minsumvc
from minsumvc import gaussian

from minsumvc import (
    copula_diag,
    copula_diag_deriv,
    copula_diag_grid,
    copula_diag_integral,
    gaussian_copula,
    phi_cdf,
    phi_inv,
    phi_pdf,
)
from minsumvc.gaussian import SQRT_TAU, Z_CUT, _gauss_legendre, phi_inv_vec

TAU = 2.0 * math.pi


def test_phi_pdf_and_cdf_basics():
    assert phi_pdf(0.0) == pytest.approx(1.0 / math.sqrt(TAU), rel=1e-15)
    assert phi_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert phi_cdf(-8.5) < 1e-16
    assert phi_cdf(8.5) > 1.0 - 1e-16


def test_phi_round_trip_tight():
    # x-space round trips hold 1e-12 while ulp(Phi(x)) / phi(x) stays below
    # it, i.e. for |x| <= 4; beyond that only the p-space trip is meaningful
    xs = np.linspace(-4.0, 4.0, 241)
    for x in xs:
        assert phi_inv(phi_cdf(float(x))) == pytest.approx(float(x), abs=1e-12)
    for x in np.linspace(-6.0, 6.0, 97):
        assert phi_inv(phi_cdf(float(x))) == pytest.approx(float(x), abs=1e-8)
    ps = np.linspace(1e-6, 1.0 - 1e-6, 199)
    for p in ps:
        assert phi_cdf(phi_inv(float(p))) == pytest.approx(float(p), abs=1e-12)
    for p in (1e-12, 1e-9, 0.5, 1.0 - 1e-9):
        assert phi_cdf(phi_inv(p)) == pytest.approx(p, rel=1e-9)


def test_phi_inv_domain():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            phi_inv(bad)


def test_copula_independence():
    for x in (0.1, 0.35, 0.5, 0.9):
        for y in (0.2, 0.5, 0.77):
            assert gaussian_copula(0.0, x, y) == pytest.approx(x * y, abs=1e-12)


def test_copula_comonotone_and_antimonotone():
    for x in (0.1, 0.4, 0.5, 0.8):
        for y in (0.25, 0.5, 0.9):
            assert gaussian_copula(1.0, x, y) == pytest.approx(min(x, y), abs=1e-9)
            assert gaussian_copula(-1.0, x, y) == pytest.approx(
                max(x + y - 1.0, 0.0), abs=1e-9
            )


def test_copula_median_closed_form():
    # C_rho(1/2, 1/2) = 1/4 + asin(rho) / tau
    for rho in (-0.95, -0.52, -0.3, 0.0, 0.4, 0.9):
        oracle = 0.25 + math.asin(rho) / TAU
        assert gaussian_copula(rho, 0.5, 0.5) == pytest.approx(oracle, abs=1e-10)


def test_copula_frechet_bounds_and_symmetry():
    rng = np.random.default_rng(3)
    for trial in range(60):
        rho = float(rng.uniform(-0.99, 0.99))
        x = float(rng.uniform(0.01, 0.99))
        y = float(rng.uniform(0.01, 0.99))
        c = gaussian_copula(rho, x, y)
        assert max(x + y - 1.0, 0.0) - 1e-9 <= c <= min(x, y) + 1e-9
        assert c == pytest.approx(gaussian_copula(rho, y, x), abs=1e-11)


def test_copula_marginal_edges():
    for rho in (-0.7, 0.0, 0.6):
        assert gaussian_copula(rho, 0.0, 0.4) == 0.0
        assert gaussian_copula(rho, 0.3, 1.0) == pytest.approx(0.3, abs=1e-12)
        assert gaussian_copula(rho, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_copula_domain_checks():
    with pytest.raises(ValueError):
        gaussian_copula(1.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        gaussian_copula(0.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        gaussian_copula(0.0, 0.5, 1.1)


# gaussian_copula's repr as `gaussian gamma` prints it, recorded before the
# scalar and grid paths shared one quadrature core: rho of both signs and
# within 1e-10 of +-1, x = y and x != y, quadrature at rho = +-1e-11 and the
# rho ~ 0 branch at +-1e-13, an empty window (x = 1e-300), y = 1 - 1e-13,
# and the closed forms.
_GAMMA_BYTES = [
    (-0.52, 0.3, 0.3, 0.030985021635002274),
    (-0.52, 0.2, 0.7, 0.08217163753501705),
    (0.5, 0.4, 0.4, 0.2391272473854144),
    (0.5, 0.1, 0.85, 0.09846025715431589),
    (1e-11, 0.3, 0.6, 0.18000000000134933),
    (-1e-11, 0.3, 0.3, 0.08999999999879409),
    (1e-13, 0.3, 0.6, 0.17999999999999958),
    (-1e-13, 0.3, 0.6, 0.17999999999999958),
    (0.9999999999, 0.25, 0.25, 0.2499982071376031),
    (-0.9999999999, 0.6, 0.6, 0.20000000000000012),
    (-0.9, 1e-300, 0.5, 0.0),
    (0.9, 1e-300, 0.5, 0.0),
    (0.7, 0.4, 0.9999999999999, 0.3999999999999994),
    (-0.3, 0.9999999999999, 0.9999999999999, 0.9999999999998034),
    (1.0, 0.3, 0.6, 0.3),
    (-1.0, 0.7, 0.6, 0.2999999999999998),
    (0.0, 0.3, 0.6, 0.17999999999999958),
    (-0.52, 0.0, 0.5, 0.0),
    (-0.52, 1.0, 0.25, 0.25),
]


@pytest.mark.parametrize("rho, x, y, value", _GAMMA_BYTES)
def test_copula_prints_its_pinned_bytes(rho, x, y, value):
    got = gaussian_copula(rho, x, y)
    assert type(got) is float and repr(got) == repr(value)


def test_diag_grid_matches_scalar():
    r = np.linspace(0.0, 1.0, 101)
    for rho in (-0.9, -0.52, -0.1, 0.3):
        grid = copula_diag_grid(rho, r)
        for i in (0, 7, 33, 50, 88, 100):
            assert grid[i] == pytest.approx(copula_diag(rho, float(r[i])), abs=1e-9)


def _diag_grid_one_shot(rho, r, n_nodes=160):
    """copula_diag_grid with the whole n_nodes x N quadrature in one expression."""
    out = np.zeros_like(r)
    tiny = ndtr(-Z_CUT)
    inner = (r > tiny) & (r < 1.0 - 1e-16)
    out[r >= 1.0 - 1e-16] = r[r >= 1.0 - 1e-16]
    b = phi_inv_vec(r[inner])
    s = math.sqrt(1.0 - rho * rho)
    b0 = np.minimum(b, Z_CUT)
    z1 = (b + Z_CUT * s) / rho
    z2 = (b - Z_CUT * s) / rho
    z_lo, z_hi = (z1, z2) if rho < 0.0 else (z2, z1)
    qa = np.clip(z_lo, -Z_CUT, b0)
    qb = np.clip(z_hi, -Z_CUT, b0)
    if rho < 0.0:
        ones = np.maximum(0.0, ndtr(b0) - ndtr(qb))
    else:
        ones = np.maximum(0.0, ndtr(qa) - ndtr(-Z_CUT))
    t, w = _gauss_legendre(n_nodes)
    half = 0.5 * (qb - qa)
    mid = 0.5 * (qb + qa)
    z = mid[None, :] + half[None, :] * t[:, None]
    vals = np.exp(-0.5 * z * z) / SQRT_TAU * ndtr((b[None, :] - rho * z) / s)
    out[inner] = ones + half * (w @ vals)
    return out


def test_diag_grid_blocks_match_one_shot_bits():
    # 4095 interior points: thirty 128-column slabs and a last one of 255;
    # 513 and 1025 points would leave a last slab of one column.  Both the
    # integral's and the soundness profile's orientation of the grid.
    for size in (4097, 515, 1027):
        t = np.linspace(0.0, 1.0, size)
        for rho in (-0.999, -0.9, -0.52, -0.1):
            for r in (t, 1.0 - t):
                assert np.array_equal(copula_diag_grid(rho, r), _diag_grid_one_shot(rho, r))


def test_diag_grid_bits_do_not_depend_on_the_slab_width(monkeypatch):
    # figure 1's 50 distinct rho on the soundness profiles' g = 12 grid
    rhos = sorted(set(minsumvc.figure1_config().rhos.tolist()))
    assert len(rhos) == 50 and gaussian._BLOCK == 128
    r = 1.0 - np.linspace(0.0, 1.0, 4097)
    default = [copula_diag_grid(rho, r) for rho in rhos]
    for block in (32, 64, 256, 512):
        monkeypatch.setattr(gaussian, "_BLOCK", block)
        for rho, expected in zip(rhos, default):
            assert np.array_equal(copula_diag_grid(rho, r), expected), (block, rho)


def test_diag_integral_closed_form():
    # integral_0^1 C_rho(r, r) dr = 1/4 + asin((1 + rho) / 2) / tau
    for rho in (-0.99, -0.75, -0.52, -0.25, 0.0):
        oracle = 0.25 + math.asin((1.0 + rho) / 2.0) / TAU
        assert copula_diag_integral(rho) == pytest.approx(oracle, abs=2e-7)


def test_diag_integral_raises_when_not_converged():
    # at rho = 0.5 the 2^12 and 2^13 grids differ by about 4e-11, never 0
    with pytest.raises(RuntimeError, match=r"copula_diag_integral\(0\.5\).*tol=0\.0.*last gap"):
        copula_diag_integral(0.5, tol=0.0, max_exp=13)


def test_diag_integral_boundary_values():
    assert copula_diag_integral(0.0) == pytest.approx(1.0 / 3.0, abs=2e-7)
    assert copula_diag_integral(-1.0) == pytest.approx(0.25, abs=2e-7)


def test_diag_deriv_closed_form_and_fd():
    # d/dr C_rho(r, r) = 2 Phi(sqrt((1 - rho) / (1 + rho)) PhiInv(r))
    h = 1e-6
    for rho in (-0.8, -0.52, -0.2, 0.5):
        scale = math.sqrt((1.0 - rho) / (1.0 + rho))
        for r in np.linspace(0.02, 0.98, 25):
            r = float(r)
            oracle = 2.0 * phi_cdf(scale * phi_inv(r))
            d = copula_diag_deriv(rho, r)
            assert d == pytest.approx(oracle, abs=1e-9)
            fd = (copula_diag(rho, r + h) - copula_diag(rho, r - h)) / (2.0 * h)
            assert d == pytest.approx(fd, abs=1e-5)


def test_diag_monotone_in_rho():
    # positive dependence concentrates diagonal mass
    vals = [copula_diag(rho, 0.4) for rho in (-0.9, -0.5, 0.0, 0.5, 0.9)]
    assert all(a < b + 1e-12 for a, b in zip(vals, vals[1:]))


# Takes gaussian._ndtr from a fresh interpreter, where nothing has imported
# scipy.special yet, with _NDTR_EXTENSION set to the given module.  Four
# threads make the first call at once, and the load sleeps so that they
# overlap in it.  Writes ndtr of the input array and reports how the
# ufunc was found; then imports scipy.special.
_NDTR_CHILD = """
import importlib.util, json, sys, threading, time
sys.path.insert(0, {src!r})
import numpy as np
from minsumvc import gaussian
gaussian._NDTR_EXTENSION = {extension!r}
loads = []
spec_from_file_location = importlib.util.spec_from_file_location

def slow_spec(*args, **kwargs):
    loads.append(args[0])
    time.sleep(0.05)
    return spec_from_file_location(*args, **kwargs)

importlib.util.spec_from_file_location = slow_spec
barrier = threading.Barrier(4)
got = []

def first_call():
    barrier.wait()
    got.append(gaussian._ndtr())

threads = [threading.Thread(target=first_call) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
np.save({out!r}, got[0](np.load({inp!r})))
report = {{
    "module": gaussian._ndtr_module().__name__,
    "loads": loads,
    "one_ufunc": all(u is got[0] for u in got),
    "scipy_special_before": "scipy.special" in sys.modules,
}}
import scipy.special
from scipy.special import _special_ufuncs
report["same_as_scipy_special"] = scipy.special.ndtr is got[0]
report["package_attribute"] = scipy.special._special_ufuncs is _special_ufuncs
print(json.dumps(report))
"""


def _ndtr_inputs(monkeypatch):
    """What copula_diag_grid passes to ndtr at three rhos, and edge values."""
    seen = []

    def recording(x, out=None):
        seen.append(np.array(x, dtype=np.float64).ravel())
        return ndtr(x, out=out)

    monkeypatch.setattr(gaussian, "_ndtr", lambda: recording)
    r = np.linspace(0.0, 1.0, 67)
    for rho in (-0.979, -0.52, -0.1):
        copula_diag_grid(rho, r)
        copula_diag_grid(rho, 1.0 - r)
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny, 2.2e-308, -2.2e-308,
             8.3, -8.3, 38.5, -38.5]
    return np.concatenate(seen + [np.array(edges)])


@pytest.mark.parametrize("extension, module, loads", [
    ("scipy.special._special_ufuncs", "scipy.special._special_ufuncs", 1),
    ("scipy.special._no_such_module", "scipy.special", 0),  # no file
    ("scipy.special._comb", "scipy.special", 1),  # a file without ndtr
])
def test_ndtr_is_scipy_special_ndtr_bit_for_bit(tmp_path, monkeypatch, extension, module, loads):
    x = _ndtr_inputs(monkeypatch)
    assert x.size > 3 * 160 * 60
    np.save(tmp_path / "x.npy", x)
    src = str(Path(minsumvc.__file__).resolve().parent.parent)
    code = _NDTR_CHILD.format(src=src, extension=extension, inp=str(tmp_path / "x.npy"), out=str(tmp_path / "y.npy"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, timeout=120)
    report = json.loads(proc.stdout)
    assert report["module"] == module
    assert report["loads"] == [extension] * loads
    assert report["one_ufunc"] and report["same_as_scipy_special"] and report["package_attribute"]
    assert report["scipy_special_before"] == (module == "scipy.special")
    assert np.array_equal(np.load(tmp_path / "y.npy").view(np.uint64), ndtr(x).view(np.uint64))
