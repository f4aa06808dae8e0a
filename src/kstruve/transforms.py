"""Sumudu transform, its closed-form k-Struve images, and the
Riemann-Liouville fractional integral discretization.

The Sumudu transform is fixed as S[f](u) = int_0^inf e^(-t) f(u t) dt, the
kernel under which the power rule S{t^(mu-1)} = u^(mu-1) Gamma(mu) and the
fractional-integral rule S{D^(-nu) f} = u^nu S{f} both hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError
from .specfun import (
    KStruveParams,
    TruncationPolicy,
    WrightParams,
    fox_wright,
    fox_wright_info,
)

__all__ = [
    "QuadratureSpec",
    "TimeGrid",
    "sumudu_numeric",
    "sumudu_power_rule",
    "sumudu_kstruve_closed",
    "inverse_sumudu_kstruve",
    "rl_fractional_integral",
    "rl_weight_scale",
    "rl_boundary_weights",
    "rl_interior_kernel",
    "sumudu_rl_rule",
]

_SCHEMES = ("gauss_laguerre", "truncated_adaptive")


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate the forward transform integral.

    ``gauss_laguerre`` uses ``node_count`` nodes (the weights absorb the
    e^(-t) kernel).  ``truncated_adaptive`` integrates adaptively on
    [0, upper_cut] instead; ``node_count`` is not meaningful there.
    """

    node_count: int = 64
    scheme: str = "gauss_laguerre"
    upper_cut: float = 40.0

    def __post_init__(self):
        if not isinstance(self.node_count, int) or not 2 <= self.node_count <= 512:
            raise DomainError(f"node_count must be an integer in [2, 512], got {self.node_count!r}")
        if self.scheme not in _SCHEMES:
            raise DomainError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not (self.upper_cut > 0 and math.isfinite(self.upper_cut)):
            raise DomainError(f"upper_cut must be a positive real, got {self.upper_cut!r}")


@lru_cache(maxsize=16)
def _laguerre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_laguerre  # scipy loads only for the numeric transform

    nodes, weights = roots_laguerre(n)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise QuadratureError(f"Gauss-Laguerre rule unstable at node_count={n}")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
    """Numerical Sumudu transform of a sampler f at u > 0."""
    if not (u > 0 and math.isfinite(u)):
        raise DomainError(f"u must be a positive real, got {u!r}")
    if q.scheme == "gauss_laguerre":
        nodes, weights = _laguerre_rule(q.node_count)
        weighted = []
        for t, w in zip(nodes, weights):
            v = f(u * t)
            if not math.isfinite(v):
                raise QuadratureError(f"integrand non-finite at node t={t!r}")
            weighted.append(w * v)
        return math.fsum(weighted)
    from scipy.integrate import quad

    value, _ = quad(
        lambda t: math.exp(-t) * f(u * t),
        0.0,
        q.upper_cut,
        limit=300,
        epsabs=1e-12,
        epsrel=1e-12,
    )
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


def _kstruve_image_params(params: KStruveParams) -> WrightParams:
    q = params.order_ratio
    return WrightParams(
        upper=((q + 2.0, 2.0), (1.0, 1.0)),
        lower=((q + 1.5, 1.0), (1.5, 1.0)),
    )


def _sumudu_kstruve_image(
    params: KStruveParams, u: float, pol: TruncationPolicy, scale: float = 1.0
) -> tuple[float, int]:
    """``sumudu_kstruve_closed`` and the terms its 2Psi2 series used."""
    if not (u > 0 and math.isfinite(u)):
        raise DomainError(f"u must be a positive real, got {u!r}")
    if not (scale > 0 and math.isfinite(scale)):
        raise DomainError(f"scale must be a positive real, got {scale!r}")
    ue = scale * u
    q = params.order_ratio
    wright = _kstruve_image_params(params)
    z = -params.c * ue * ue / (4.0 * params.k)
    prefactor = (ue / 2.0) ** (q + 1.0) * params.k ** (-0.5 - q)
    value, used = fox_wright_info(wright, z, pol)
    return prefactor * value, used


def sumudu_kstruve_closed(
    params: KStruveParams,
    u: float,
    pol: TruncationPolicy = TruncationPolicy(),
    scale: float = 1.0,
) -> float:
    """Closed-form Sumudu image of the k-Struve function.

    (u/2)^(nu/k+1) k^(-1/2-nu/k) 2Psi2[(nu/k+2,2),(1,1); (nu/k+3/2,1),(3/2,1)]
    at argument -c u^2/(4k).  ``scale`` transforms t -> S(scale*t): the image
    is the same expression evaluated at scale*u.
    """
    return _sumudu_kstruve_image(params, u, pol, scale)[0]


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
        if q <= 0:
            raise DomainError(f"inverse image at t=0 needs nu/k > 0, got {q}")
        return 0.0
    wright = WrightParams(
        upper=((1.0, 1.0),),
        lower=((q + 1.5, 1.0), (1.5, 1.0), (q, 2.0)),
    )
    z = -params.c * t * t / (4.0 * params.k)
    return (t / 2.0) ** q * params.k ** (-0.5 - q) * fox_wright(wright, z, pol)


def rl_weight_scale(nu: float, h: float) -> float:
    """Common factor h^nu / Gamma(nu + 2) of the product-trapezoidal weights."""
    return h ** nu / math.gamma(nu + 2.0)


def rl_boundary_weights(nu: float, n: int) -> np.ndarray:
    """Unscaled weights multiplying f(0), indexed by target node i = 1..n."""
    i = np.arange(1, n + 1, dtype=float)
    return (i - 1.0) ** (nu + 1.0) - i ** nu * (i - nu - 1.0)


def rl_interior_kernel(nu: float, n: int) -> np.ndarray:
    """Unscaled convolution kernel d2[m] for interior nodes, m = 1..n-1.

    d2[m] = (m+1)^(nu+1) - 2 m^(nu+1) + (m-1)^(nu+1), the exact integral of
    the singular kernel against the piecewise-linear hat at lag m.
    """
    m = np.arange(0, n + 1, dtype=float)
    p = m ** (nu + 1.0)
    return p[2:] - 2.0 * p[1:-1] + p[:-2]


def rl_fractional_integral(
    samples: np.ndarray, grid: TimeGrid, nu: float, f_zero: float = 0.0
) -> np.ndarray:
    """Riemann-Liouville fractional integral of order nu on a uniform grid.

    Product-trapezoidal rule: (1/Gamma(nu)) int_0^t (t-s)^(nu-1) f(s) ds with
    the kernel integrated exactly against the piecewise-linear interpolant of
    the samples, so the t=0 singularity (0 < nu < 1) costs no accuracy order.
    ``f_zero`` supplies the limit value f(0+), assumed 0 by default.
    """
    if not (nu > 0 and math.isfinite(nu)):
        raise DomainError(f"nu must be a positive real, got {nu!r}")
    samples = np.asarray(samples, dtype=float)
    n = grid.n_points
    if samples.shape != (n,):
        raise DomainError(f"expected {n} samples, got shape {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise DomainError("samples must be finite")
    scale = rl_weight_scale(nu, grid.spacing)
    out = samples.copy()  # diagonal weight is exactly 1 (unscaled)
    out += f_zero * rl_boundary_weights(nu, n)
    if n > 1:
        kernel = rl_interior_kernel(nu, n)
        # interior sum_{j=1}^{i-1} d2[i-j] f_j is a discrete convolution
        conv = np.convolve(samples[:-1], kernel)[: n - 1]
        out[1:] += conv
    return scale * out


def sumudu_rl_rule(g_of_u: float, u: float, nu: float) -> float:
    """Transform rule S{D^(-nu) f}(u) = u^nu G(u) for the RL integral."""
    if not (u > 0 and math.isfinite(u)):
        raise DomainError(f"u must be a positive real, got {u!r}")
    if not (nu > 0 and math.isfinite(nu)):
        raise DomainError(f"nu must be a positive real, got {nu!r}")
    if not math.isfinite(g_of_u):
        raise DomainError("G(u) must be finite")
    return u ** nu * g_of_u
