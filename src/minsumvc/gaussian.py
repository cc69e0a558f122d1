"""Standard normal CDF, its inverse, and the Gaussian-copula quantities
behind the hardness constructions.

For correlation rho in [-1, 1] and u, v in [0, 1], the copula value

    C_rho(u, v) = Pr[X <= Phi^-1(u) and Y <= Phi^-1(v)]

for (X, Y) bivariate standard normal with correlation rho.  Closed forms:
C_1(u, v) = min(u, v), C_0(u, v) = u*v, C_-1(u, v) = max(0, u + v - 1).

The general case is computed by one-dimensional quadrature of

    integral phi(z) * Phi((Phi^-1(v) - rho*z) / sqrt(1 - rho^2)) dz

over z <= Phi^-1(u), truncated at |z| <= 8.  The region where the inner
Phi factor is saturated (0 or 1 beyond 8 standard deviations) is integrated
in closed form; Gauss-Legendre nodes cover the remaining transition window.
One quadrature core, on arrays of quantiles, serves both paths: the scalar
gaussian_copula calls it on one-element arrays with a node-doubling check,
and copula_diag_grid on a whole grid at a fixed node count.

The diagonal slice C_rho(r, r), its derivative in r, and its integral over
r in [0, 1] are what the hardness bounds consume.  The derivative has the
conditional-CDF closed form 2 * Phi(sqrt((1-rho)/(1+rho)) * Phi^-1(r)).

scipy's ndtr is loaded on the first call that needs it, so that importing
this module (and the package, and its CLI) does not load scipy.  It is
taken from the one compiled module that defines it, not from
scipy.special, whose package import costs about 155 ms and 20 MB (see
_ndtr).
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT_TAU = math.sqrt(2.0 * math.pi)

# Truncation radius for normal tails; Phi(-8) ~ 6.2e-16.
Z_CUT = 8.0

_BLOCK = 512  # quadrature columns per slab in _copula_quad
_GRID_NODES = 160  # Gauss-Legendre nodes per window in copula_diag_grid

# The compiled module that defines scipy.special.ndtr.
_NDTR_EXTENSION = "scipy.special._special_ufuncs"
_ndtr_lock = threading.Lock()


def _ndtr():
    """scipy.special.ndtr, the same ufunc object, without importing scipy.special.

    `from scipy.special import ndtr` runs all of scipy/special/__init__:
    scipy's array-API layer, numpy.ma, numpy.testing, numpy.f2py and some
    60 scipy modules, about 155 ms and 20 MB.  So does
    `import scipy.special._special_ufuncs`, since importing a submodule
    imports its package first.  The first call instead imports the scipy
    package (about 8 ms) and loads _NDTR_EXTENSION from its file.  Where
    scipy.special is loaded already, or that file or its ndtr is missing
    (other scipy versions), it takes ndtr from scipy.special.  The lock
    makes concurrent first calls, as from composite_ratio's pool threads,
    load the module once.
    """
    with _ndtr_lock:
        return _ndtr_module().ndtr


@functools.cache
def _ndtr_module():
    """The module _ndtr takes ndtr from: _NDTR_EXTENSION, or scipy.special."""
    import importlib.machinery
    import importlib.util

    import scipy

    stem = os.path.join(os.path.dirname(scipy.__file__), *_NDTR_EXTENSION.split(".")[1:])
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.exists, paths), None)
    if path is not None and "scipy.special" not in sys.modules:
        spec = importlib.util.spec_from_file_location(_NDTR_EXTENSION, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # so that a later `import scipy.special` loads the module as its
        # own and sets it as an attribute; the ufuncs are the same objects
        sys.modules.pop(_NDTR_EXTENSION, None)
        if hasattr(module, "ndtr"):
            return module
    import scipy.special

    return scipy.special


@functools.cache
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


def phi_pdf(x):
    return math.exp(-0.5 * x * x) / SQRT_TAU


def phi_cdf(x):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / SQRT2)


# Rational initial guess for the inverse normal CDF (Acklam's coefficients),
# refined by two Newton steps against phi_cdf.
_INV_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_INV_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_INV_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_INV_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_P_LOW = 0.02425


def _acklam_tail(q):
    """Acklam's guess at phi_inv(p) for p < _P_LOW, at q = sqrt(-2 log p); a float or an array."""
    c, d = _INV_C, _INV_D
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def _acklam_central(q):
    """Acklam's guess at phi_inv(p) for p between the tails, at q = p - 0.5; a float or an array."""
    a, b, r = _INV_A, _INV_B, q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def phi_inv(p):
    """Inverse standard normal CDF on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("phi_inv requires 0 < p < 1")
    if p < _P_LOW:
        x = _acklam_tail(math.sqrt(-2.0 * math.log(p)))
    elif p > 1.0 - _P_LOW:
        x = -_acklam_tail(math.sqrt(-2.0 * math.log(1.0 - p)))
    else:
        x = _acklam_central(p - 0.5)
    for _ in range(2):
        pdf = phi_pdf(x)
        if pdf <= 0.0:
            break
        x -= (phi_cdf(x) - p) / pdf
    return x


def phi_inv_vec(p):
    """Vectorized phi_inv; same rational-guess plus Newton construction."""
    ndtr = _ndtr()

    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("phi_inv requires 0 < p < 1")
    x = np.empty_like(p)

    low = p < _P_LOW
    high = p > 1.0 - _P_LOW
    mid = ~(low | high)

    if np.any(low):
        x[low] = _acklam_tail(np.sqrt(-2.0 * np.log(p[low])))
    if np.any(high):
        x[high] = -_acklam_tail(np.sqrt(-2.0 * np.log(1.0 - p[high])))
    if np.any(mid):
        x[mid] = _acklam_central(p[mid] - 0.5)

    for _ in range(2):
        pdf = np.exp(-0.5 * x * x) / SQRT_TAU
        x = x - (ndtr(x) - p) / pdf
    return x


def _copula_quad(rho, bx, by, n_nodes):
    """Quadrature for C_rho at arrays of quantiles (bx, by), |rho| < 1, rho != 0.

    Splits [-Z_CUT, min(bx, Z_CUT)] into the part where the inner Phi factor
    is saturated at 1 (closed form) and the transition window (n_nodes
    Gauss-Legendre nodes).  An empty window (bx <= -Z_CUT, or no transition
    inside [-Z_CUT, bx]) has half-width 0 and adds exactly 0.0.
    """
    ndtr = _ndtr()

    s = math.sqrt(1.0 - rho * rho)
    a0 = -Z_CUT
    b0 = np.minimum(bx, Z_CUT)
    # endpoints where (by - rho z)/s hits -Z_CUT and +Z_CUT
    z1 = (by + Z_CUT * s) / rho
    z2 = (by - Z_CUT * s) / rho
    z_lo, z_hi = (z1, z2) if rho < 0.0 else (z2, z1)
    qa = np.clip(z_lo, a0, b0)
    qb = np.clip(z_hi, a0, b0)
    if rho < 0.0:
        # factor increases with z, saturates at 1 above qb
        ones = np.maximum(0.0, ndtr(b0) - ndtr(qb))
    else:
        # factor decreases with z, saturates at 1 below qa
        ones = np.maximum(0.0, ndtr(qa) - ndtr(a0))

    t, w = _gauss_legendre(n_nodes)
    half = 0.5 * (qb - qa)
    mid = 0.5 * (qb + qa)
    # slabs of _BLOCK columns, the last up to twice as wide (a last slab of
    # 1-3 columns moved the product's last bits): each column gets the
    # operations and the bits of one n_nodes x N slab, without its size.
    # Three buffers sized for the widest slab hold each slab's values in
    # turn, every operation writing in place.  Three arrays, not one of
    # three rows: with one 3.9 MB block, the benchmark's hardness_solve pass
    # in one process held 12 MB more after `hardness composite` and peaked
    # at 108 MB against 98 MB, as freeing the block raises glibc's mmap
    # threshold and the pool threads' heaps then keep the later blocks.
    stops = [*range(_BLOCK, bx.size - _BLOCK + 1, _BLOCK), bx.size]
    slabs = list(zip([0, *stops], stops))
    bufs = [np.empty(n_nodes * max(hi - lo for lo, hi in slabs)) for _ in range(3)]
    for lo, hi in slabs:
        z, e, a = (buf[: n_nodes * (hi - lo)].reshape(n_nodes, -1) for buf in bufs)
        np.multiply(half[lo:hi], t[:, None], out=z)
        z += mid[lo:hi]
        np.multiply(z, -0.5, out=e)
        e *= z
        np.exp(e, out=e)
        e /= SQRT_TAU
        np.multiply(z, rho, out=a)
        np.subtract(by[lo:hi], a, out=a)
        a /= s
        ndtr(a, out=a)
        e *= a
        ones[lo:hi] += half[lo:hi] * (w @ e)
    return ones


def gaussian_copula(rho, x, y):
    """C_rho(x, y) for x, y in [0, 1], rho in [-1, 1].

    Quadrature path targets 1e-10 absolute via node doubling; exact closed
    forms at rho in {-1, 0-ish, 1} and at the boundary arguments.
    """
    ndtr = _ndtr()

    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    if not 0.0 <= x <= 1.0 or not 0.0 <= y <= 1.0:
        raise ValueError("x and y must lie in [0, 1]")
    if x == 0.0 or y == 0.0:
        return 0.0
    if x == 1.0:
        return y
    if y == 1.0:
        return x
    if rho == 1.0:
        return min(x, y)
    if rho == -1.0:
        return max(0.0, x + y - 1.0)
    bx = phi_inv(x)
    by = phi_inv(y)
    if abs(rho) < 1e-12:
        return float(y * (ndtr(min(bx, Z_CUT)) - ndtr(-Z_CUT)))
    bx, by = np.array([bx]), np.array([by])
    val = float(_copula_quad(rho, bx, by, 96)[0])
    for n in (192, 384):
        ref = float(_copula_quad(rho, bx, by, n)[0])
        if abs(ref - val) <= 1e-10:
            return ref
        val = ref
    return val


def copula_diag(rho, r):
    """C_rho(r, r)."""
    return gaussian_copula(rho, r, r)


def copula_diag_grid(rho, r):
    """Vectorized C_rho(r_i, r_i) over an array of r values in [0, 1].

    The scalar path's quadrature core, with _GRID_NODES fixed nodes on each
    transition window.  Agreement with the scalar route is pinned by tests.
    """
    ndtr = _ndtr()

    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0.0) or np.any(r > 1.0):
        raise ValueError("r must lie in [0, 1]")
    if rho == 1.0:
        return r.copy()
    if rho == -1.0:
        return np.maximum(0.0, 2.0 * r - 1.0)

    out = np.zeros_like(r)
    tiny = ndtr(-Z_CUT)
    inner = (r > tiny) & (r < 1.0 - 1e-16)
    out[r >= 1.0 - 1e-16] = r[r >= 1.0 - 1e-16]
    if not np.any(inner):
        return out
    b = phi_inv_vec(r[inner])

    if abs(rho) < 1e-12:
        out[inner] = r[inner] * (ndtr(np.minimum(b, Z_CUT)) - tiny)
        return out

    out[inner] = _copula_quad(rho, b, b, _GRID_NODES)
    return out


def copula_diag_deriv(rho, r):
    """d/dr of C_rho(r, r), from the conditional-CDF closed form.

    Equals 2 * Phi(sqrt((1-rho)/(1+rho)) * Phi^-1(r)); ranges over (0, 2).
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    return 2.0 * phi_cdf(math.sqrt((1.0 - rho) / (1.0 + rho)) * phi_inv(r))


def copula_diag_integral(rho, min_exp=12, tol=1e-7, max_exp=15):
    """integral over r in [0, 1] of C_rho(r, r) dr.

    Composite Simpson on a uniform dyadic grid of at least 2^min_exp + 1
    nodes; the value on the doubled grid must agree within tol (the halved
    grid is the stride-2 subgrid, so one evaluation serves both).  Raises
    RuntimeError when no grid up to 2^max_exp + 1 nodes agrees.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    gap = None
    for g in range(min_exp, max_exp + 1):
        n = (1 << g) + 1
        r = np.linspace(0.0, 1.0, n)
        vals = copula_diag_grid(rho, r)
        full = _simpson_uniform(vals, 1.0 / (n - 1))
        gap = abs(full - _simpson_uniform(vals[::2], 2.0 / (n - 1)))
        if gap <= tol:
            return full
    raise RuntimeError(
        f"copula_diag_integral({rho}) not converged to tol={tol} by 2^{max_exp} "
        f"intervals: last gap {gap}"
    )


def _simpson_uniform(vals, h):
    n = vals.size
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count >= 3")
    return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum()))
