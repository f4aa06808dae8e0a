"""Sumudu transform, its closed-form k-Struve images, and the
Riemann-Liouville fractional integral discretization.

The Sumudu transform is fixed as S[f](u) = int_0^inf e^(-t) f(u t) dt, the
kernel under which the power rule S{t^(mu-1)} = u^(mu-1) Gamma(mu) and the
fractional-integral rule S{D^(-nu) f} = u^nu S{f} both hold.

``sumudu_numeric`` evaluates it with numpy alone: a Gauss-Laguerre rule whose
nodes are the eigenvalues of the Laguerre Jacobi matrix (Golub & Welsch,
Math. Comp. 23, 1969) polished by Newton steps, with Christoffel weights; or
an adaptive Gauss-Kronrod 7-15 rule (QUADPACK's qk15, Piessens et al., 1983)
on [0, 40] that bisects the subinterval with the largest |K15 - G7|,
at most 300 subintervals, and warns with ``QuadratureWarning`` when that
budget ends above tolerance.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError, QuadratureWarning
from .specfun import KStruveParams, TruncationPolicy, _struve_transform_series

__all__ = [
    "QuadratureSpec",
    "TimeGrid",
    "sumudu_numeric",
    "sumudu_power_rule",
    "sumudu_kstruve_closed",
    "inverse_sumudu_kstruve",
    "rl_fractional_integral",
    "sumudu_rl_rule",
]

_SCHEMES = ("gauss_laguerre", "truncated_adaptive")


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate the forward transform integral.

    ``gauss_laguerre`` uses ``node_count`` Gauss-Laguerre nodes (the weights
    absorb the e^(-t) kernel); f is not sampled at the far nodes whose
    weights are below the smallest double.
    ``truncated_adaptive`` integrates e^(-t) f(u t) on [0, 40] with an
    adaptive Gauss-Kronrod 7-15 rule to absolute and relative tolerance
    1e-12 in at most 300 subintervals; if the budget ends above tolerance
    it returns its value and warns with ``QuadratureWarning``.
    ``node_count`` is not meaningful there.
    """

    node_count: int = 64
    scheme: str = "gauss_laguerre"

    def __post_init__(self):
        if not isinstance(self.node_count, int) or not 2 <= self.node_count <= 512:
            raise DomainError(f"node_count must be an integer in [2, 512], got {self.node_count!r}")
        if self.scheme not in _SCHEMES:
            raise DomainError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")


def _laguerre_recurrence(x: np.ndarray, n: int):
    """L_{n-1}(x), L_n(x), sum_{k<n} L_k(x)^2 and the shift they are scaled by.

    The three-term recurrence scales its running values down by 2^256 (the
    sum by 2^512) wherever |L_k| passes 2^256, so nothing overflows at the
    far nodes; the true values are the returned ones times 2^shift (the sum
    times 4^shift).
    """
    prev, cur, total = np.zeros_like(x), np.ones_like(x), np.ones_like(x)
    shift = np.zeros(x.shape, dtype=int)
    for k in range(1, n + 1):
        prev, cur = cur, ((2 * k - 1 - x) * cur - (k - 1) * prev) / k
        if k < n:
            total += cur * cur
        big = np.abs(cur) > 2.0**256
        if big.any():
            down = np.where(big, -256, 0)
            prev, cur, total = np.ldexp(prev, down), np.ldexp(cur, down), np.ldexp(total, 2 * down)
            shift -= down
    return prev, cur, total, shift


@lru_cache(maxsize=16)
def _laguerre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Laguerre nodes and weights for int_0^inf e^(-t) f(t) dt.

    The nodes are the eigenvalues of the Jacobi matrix (diagonal 2k+1,
    off-diagonal k), polished by two Newton steps on L_n with
    x L_n' = n (L_n - L_{n-1}).  The weights are the Christoffel sums
    1 / sum_{k<n} L_k(x_i)^2, sums of positive terms, so each weight is
    accurate relative to itself even where it is 1e-101 (1.2e-14 at n = 64
    against 60-digit values).  The squared first eigenvector components are
    accurate only relative to the largest weight, and the samplers reach
    1e74 at the far nodes.  Only nodes with a positive weight are kept
    (239 of 256, 368 of 512).
    """
    k = np.arange(1.0, n)
    nodes = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) + np.diag(k, 1) + np.diag(k, -1))
    for _ in range(2):
        prev, cur, _, _ = _laguerre_recurrence(nodes, n)
        nodes = nodes - nodes * cur / (n * (cur - prev))
    _, _, total, shift = _laguerre_recurrence(nodes, n)
    weights = np.ldexp(1.0 / total, -2 * shift)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise QuadratureError(f"Gauss-Laguerre rule unstable at node_count={n}")
    keep = weights > 0.0  # weights below the smallest double are 0
    nodes, weights = nodes[keep], weights[keep]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# QUADPACK's qk15 on [-1, 1]: the Kronrod abscissae x > 0 and x = 0, their
# weights, and the 7-point Gauss weights at x[1], x[3], x[5] and x = 0.
_KRONROD_X = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_KRONROD_W = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_GAUSS_W = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)


def _g7k15(g, lo: float, hi: float) -> tuple[float, float]:
    """K15 value of g on [lo, hi] and its error estimate |K15 - G7|."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    pairs = [g(mid - half * x) + g(mid + half * x) for x in _KRONROD_X]
    centre = g(mid)
    kronrod = math.fsum(w * v for w, v in zip(_KRONROD_W, pairs + [centre]))
    gauss = math.fsum(w * v for w, v in zip(_GAUSS_W, pairs[1::2] + [centre]))
    return half * kronrod, half * abs(kronrod - gauss)


_ADAPTIVE_TOL = 1e-12  # absolute and relative
_ADAPTIVE_LIMIT = 300  # subintervals
_UPPER_CUT = 40.0  # the adaptive rule's end point; e^-40 is 4e-18


def _adaptive_g7k15(g, a: float, b: float) -> float:
    """int_a^b g to max(tol, tol * |value|), bisecting the worst subinterval.

    With ``_ADAPTIVE_LIMIT`` subintervals used above tolerance it returns
    its value and warns with ``QuadratureWarning``.
    """
    value, error = _g7k15(g, a, b)
    parts = [(-error, value, a, b)]
    while True:
        value = math.fsum(part[1] for part in parts)
        error = -math.fsum(part[0] for part in parts)
        if error <= _ADAPTIVE_TOL * max(1.0, abs(value)):
            return value
        if len(parts) >= _ADAPTIVE_LIMIT:
            warnings.warn(
                QuadratureWarning(
                    f"adaptive quadrature used {_ADAPTIVE_LIMIT} subintervals with "
                    f"error estimate {error:.3g} above tolerance {_ADAPTIVE_TOL:g}",
                    error,
                ),
                stacklevel=3,
            )
            return value
        _, _, lo, hi = heapq.heappop(parts)
        for piece in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)):
            piece_value, piece_error = _g7k15(g, *piece)
            heapq.heappush(parts, (-piece_error, piece_value, *piece))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i*h, i = 1..n_points, h = t_max/n_points.

    t = 0 is excluded from storage; values there are supplied as limits.
    """

    t_max: float
    n_points: int

    def __post_init__(self):
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise DomainError(f"t_max must be a positive real, got {self.t_max!r}")
        if not isinstance(self.n_points, int) or self.n_points < 1:
            raise DomainError(f"n_points must be a positive integer, got {self.n_points!r}")

    @property
    def spacing(self) -> float:
        return self.t_max / self.n_points

    def points(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.n_points + 1)


def sumudu_numeric(f, u: float, q: QuadratureSpec = QuadratureSpec()) -> float:
    """Numerical Sumudu transform of a sampler f at u > 0.

    f is called with one Python float at a time; a non-finite value raises
    ``QuadratureError``.  ``q`` selects the rule (see ``QuadratureSpec``);
    the adaptive rule warns with ``QuadratureWarning`` when its
    300-subinterval budget ends above tolerance.
    """
    if not (u > 0 and math.isfinite(u)):
        raise DomainError(f"u must be a positive real, got {u!r}")

    def sample(t: float) -> float:
        v = f(u * t)
        if not math.isfinite(v):
            raise QuadratureError(f"integrand non-finite at node t={t!r}")
        return v

    if q.scheme == "gauss_laguerre":
        nodes, weights = _laguerre_rule(q.node_count)
        return math.fsum(w * sample(t) for t, w in zip(nodes.tolist(), weights.tolist()))
    value = _adaptive_g7k15(lambda t: math.exp(-t) * sample(t), 0.0, _UPPER_CUT)
    if not math.isfinite(value):
        raise QuadratureError("adaptive quadrature returned a non-finite value")
    return value


def sumudu_power_rule(mu: float, u: float) -> float:
    """S{t^(mu-1)}(u) = u^(mu-1) Gamma(mu)."""
    if not (mu > 0 and math.isfinite(mu)):
        raise DomainError(f"mu must be a positive real, got {mu!r}")
    if not (u > 0 and math.isfinite(u)):
        raise DomainError(f"u must be a positive real, got {u!r}")
    return u ** (mu - 1.0) * math.gamma(mu)


def _sumudu_kstruve_image(
    params: KStruveParams, u: float, pol: TruncationPolicy
) -> tuple[float, int]:
    """``sumudu_kstruve_closed`` and the terms its 2Psi2 series used."""
    if not (u > 0 and math.isfinite(u)):
        raise DomainError(f"u must be a positive real, got {u!r}")
    if not abs(params.c) * u * u <= params.k * (1 + 1e-12):  # inf where u * u overflows
        raise DomainError(f"sumudu_kstruve: u = {u:.6g} is outside the convergence radius: "
                          "need |c| u^2 / (4k) <= 1/4")
    q = params.order_ratio
    # the 2Psi2's lower pairs and the (1, 1) pair of the Fox-Wright series' n!
    lower = ((q + 1.5, 1.0), (1.5, 1.0), (1.0, 1.0))
    return _struve_transform_series("sumudu_kstruve", "u", params, u, q + 1.0,
                                    ((q + 2.0, 2.0), (1.0, 1.0)), lower, pol)


def sumudu_kstruve_closed(
    params: KStruveParams,
    u: float,
    pol: TruncationPolicy = TruncationPolicy(),
) -> float:
    """Closed-form Sumudu image of the k-Struve function.

    (u/2)^(nu/k+1) k^(-1/2-nu/k) 2Psi2[(nu/k+2,2),(1,1); (nu/k+3/2,1),(3/2,1)]
    at argument -c u^2/(4k).  By the dilation rule, S(a t) has this image at a u.
    """
    return _sumudu_kstruve_image(params, u, pol)[0]


def inverse_sumudu_kstruve(
    params: KStruveParams, t: float, pol: TruncationPolicy = TruncationPolicy()
) -> float:
    """Inverse Sumudu image of the k-Struve function, as the displayed 1Psi3.

    Implemented exactly as the printed expression, including the lower
    parameter pair (nu/k, 2); the term-by-term inverse of the power series
    suggests (nu/k + 1, 2) instead, so round trips through the forward
    transform are reported by the tests rather than asserted.
    """
    if not (t >= 0 and math.isfinite(t)):
        raise DomainError(f"t must be a finite real >= 0, got {t!r}")
    q = params.order_ratio
    if t == 0.0:
        # the limit is 0 also at nu/k = 0 and -1, where the n = 0 term has 1/Gamma(nu/k) = 0
        if q <= 0 and q not in (0.0, -1.0):
            raise DomainError(f"inverse image at t=0 needs nu/k > 0, 0 or -1, got {q}")
        return 0.0
    # the 1Psi3's upper (1, 1) pair cancels the n! of the Fox-Wright series
    lower = ((q + 1.5, 1.0), (1.5, 1.0), (q, 2.0))
    return _struve_transform_series("inverse_sumudu_kstruve", "t", params, t, q, (), lower, pol)[0]


def _rl_weights(nu: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoidal weights of D^(-nu) on n nodes of spacing h.

    Returns (boundary, column), both scaled by h^nu / Gamma(nu + 2):
    ``boundary[i-1]`` multiplies f(0) at node i = 1..n, and ``column`` is
    the first column of the lower-triangular Toeplitz matrix on f_1..f_n,
    with diagonal weight 1 and d2[m] = (m+1)^(nu+1) - 2 m^(nu+1) + (m-1)^(nu+1)
    at lag m = 1..n-1, the exact integral of the singular kernel against the
    piecewise-linear hat.
    """
    scale = h ** nu / math.gamma(nu + 2.0)
    i = np.arange(1, n + 1, dtype=float)
    boundary = scale * ((i - 1.0) ** (nu + 1.0) - i ** nu * (i - nu - 1.0))
    p = np.arange(0, n + 1, dtype=float) ** (nu + 1.0)
    column = np.empty(n)
    column[0] = scale
    column[1:] = scale * (p[2:] - 2.0 * p[1:-1] + p[:-2])
    return boundary, column


def _toeplitz_product(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz product sum_{j<=i} c[i-j] v[j], i < len(v).

    One zero-padded rfft product of length 2n, whose first n entries are the
    linear convolution's with no wrap-around.  It runs on v scaled by the
    power of two that brings max|v| into [1/2, 1), which rounds nothing and
    keeps the sums from overflowing when |v| nears the largest double.
    """
    n = len(v)
    shift = math.frexp(float(np.max(np.abs(v))))[1]
    product = np.fft.irfft(np.fft.rfft(c, 2 * n) * np.fft.rfft(np.ldexp(v, -shift), 2 * n))
    return np.ldexp(product[:n], shift)


def rl_fractional_integral(
    samples: np.ndarray, grid: TimeGrid, nu: float, f_zero: float = 0.0
) -> np.ndarray:
    """Riemann-Liouville fractional integral of order nu on a uniform grid.

    Product-trapezoidal rule: (1/Gamma(nu)) int_0^t (t-s)^(nu-1) f(s) ds with
    the kernel integrated exactly against the piecewise-linear interpolant of
    the samples, so the t=0 singularity (0 < nu < 1) costs no accuracy order.
    ``f_zero`` supplies the finite limit value f(0+), assumed 0 by default.  The
    interior sum is one FFT product, O(n log n); its error at a node is
    relative to max|f| times the weights' sum, not to that node's value.
    """
    if not (nu > 0 and math.isfinite(nu)):
        raise DomainError(f"nu must be a positive real, got {nu!r}")
    samples = np.asarray(samples, dtype=float)
    n = grid.n_points
    if samples.shape != (n,):
        raise DomainError(f"expected {n} samples, got shape {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise DomainError("samples must be finite")
    if not math.isfinite(f_zero):
        raise DomainError(f"f_zero must be finite, got {f_zero!r}")
    boundary, column = _rl_weights(nu, grid.spacing, n)
    return _toeplitz_product(column, samples) + f_zero * boundary


def sumudu_rl_rule(g_of_u: float, u: float, nu: float) -> float:
    """Transform rule S{D^(-nu) f}(u) = u^nu G(u) for the RL integral."""
    if not (u > 0 and math.isfinite(u)):
        raise DomainError(f"u must be a positive real, got {u!r}")
    if not (nu > 0 and math.isfinite(nu)):
        raise DomainError(f"nu must be a positive real, got {nu!r}")
    if not math.isfinite(g_of_u):
        raise DomainError("G(u) must be finite")
    return u ** nu * g_of_u
