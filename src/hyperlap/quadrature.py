"""Numerical Laplace integrals: the oracle that shares no numerics with
the series-transform route.  The two share only their input checks: both
first ask laplace.require_integral_exists whether the integral exists.

Evaluates integral_0^inf e^(-st) t^(v-1) pFq(wt) dt after the
substitution u = st:

    value = s^(-v) * integral_0^inf e^(-u) u^(v-1) pFq((w/s) u) du.

The integrand is u^(v-1) phi(u) with phi(u) = e^(-u) pFq((w/s) u).  Every
panel is one 25-point Clenshaw-Curtis rule, its error read from the decay
of its own Chebyshev coefficients.  The panel at u = 0 carries u^(v-1) in
its weights (Chebyshev moments of (1+x)^(v-1): the singularity and, for
complex v, the log-oscillation u^(i Im v)); every other panel applies the
power at its nodes.  The coarse panels [0, 1], [1, u_body/4] and
[u_body/4, u_body] give the scale of the integral and then seed one
worklist, refined in sweeps: each sweep bisects the fewest worst panels
that bring the unsplit error under half the budget and evaluates all their
children in one integrand call.  Tails come in two flavors: exponential
decay (w/s < 1), bounded by the envelope of |h| at the end over its decay
rate, and algebraic decay u^rho for the s = w family, rho = v - 1 + sum(a)
- sum(b), where u^rho sum_{k<6} D_k (U/u)^k is fitted at six nodes on
[U, 3U] and integrated analytically (_power_law_tail).

The integrand sums pFq((w/s) u) directly at every node from one table of
term ratios built per integral (series.TermRatios), so the values do not
depend on earlier integrals.  Each sum comes with a bound on its rounding
(its charge), and every call adds the charges, weighted like the values,
to a running total that goes into the error estimate.  For Re(w/s) < 0 the
terms alternate and cancel: a real integrand starts in float, and once the
total passes a tenth of the absolute tolerance the rest of the integral
(the seed included, if it is the seed that passes) is summed in
double-double; a seed that still rounds by more than the whole tolerance
is refused.  A complex alternating integrand only carries the charge.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import series
from .errors import SlowDecayError
from .laplace import require_integral_exists
from .series import HyperSeriesSpec, TermRatios

__all__ = ["IntegralResult", "TailMethod", "gamma_integral_check", "laplace_numeric"]


class TailMethod(str, enum.Enum):
    EXP_DECAY = "exp_decay"
    POWER_LAW_EXTRAPOLATION = "power_law_extrapolation"


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    abs_err_est: float
    nodes_used: int
    tail_method: TailMethod
    tail_contribution: complex


# the panel rule: 25-point Clenshaw-Curtis on x_j = cos(j pi / 24); C25 maps
# values at the nodes to the coefficients c_0 .. c_24 of their Chebyshev
# interpolant, and T_25 .. T_48 are the polynomials the rule first gets wrong
_CC_N = 24
_CC_THETA = np.arange(_CC_N + 1) * np.pi / _CC_N
_CC_NODES = np.cos(_CC_THETA)
_CC_C25 = (2.0 / _CC_N) * np.cos(np.outer(np.arange(_CC_N + 1), _CC_THETA))
_CC_C25[:, [0, _CC_N]] *= 0.5
_CC_C25[[0, _CC_N], :] *= 0.5
_CC_NEXT = np.cos(np.outer(np.arange(_CC_N + 1, 2 * _CC_N + 1), _CC_THETA))
_CC_M = np.arange(1, _CC_N + 1)
_EPS = np.finfo(float).eps

# at s = w the tail decays like u^rho, rho = -1 - excess; an excess below
# this margin is refused, and the sampler keeps its s = w draws above it
_SLOW_DECAY_MARGIN = 0.05


def _power_moments(v: complex, n: int) -> np.ndarray:
    """M_k = integral_-1^1 (1+x)^(v-1) T_k(x) dx for k < n, by the
    Piessens-Branders recurrence (QUADPACK's QAWS moments)."""
    two_v = 2.0 ** v
    m = np.empty(n, dtype=complex)
    m[0] = two_v / v
    m[1] = m[0] * (v - 1.0) / (v + 1.0)
    for k in range(2, n):
        m[k] = -(two_v + k * (k - v - 1.0) * m[k - 1]) / ((k - 1.0) * (k + v))
    return m


def _cc_rule(v: complex) -> tuple[np.ndarray, np.ndarray]:
    """The weights W = M(v) C25, which integrate (1+x)^(v-1) times the
    Chebyshev interpolant of the 25 values exactly, and the rule's error
    |W @ T_k - M_k| on T_25 .. T_48."""
    m = _power_moments(v, 2 * _CC_N + 1)
    w = m[:_CC_N + 1] @ _CC_C25
    return w, np.abs(_CC_NEXT @ w - m[_CC_N + 1:])


_CC_PLAIN = _cc_rule(1.0 + 0.0j)


def _cc_error(g: np.ndarray, miss: np.ndarray) -> np.ndarray:
    """Truncation error of the rule on each row of values g: their Chebyshev
    coefficients decay like r^k (c_14..16 to c_22..24), so those past the
    rule are about tail r^m, each costing miss[m-1], the rule's error on
    T_(24+m); 4 times that sum.  A tail below 24 eps max|g| is rounding."""
    a = np.abs(g @ _CC_C25.T)
    tail = a[:, 22:].max(axis=1)
    prior = a[:, 14:17].max(axis=1)
    tail[tail <= _CC_N * _EPS * np.abs(g).max(axis=1)] = 0.0
    r = np.where(prior > tail, tail / np.maximum(prior, 1e-300), 1.0) ** 0.125
    return 4.0 * tail * np.sum(miss * r[:, None] ** _CC_M, axis=1)


class _PanelIntegrator:
    """Adaptive bisection refined in deterministic sweeps.

    The integrand is u^(v-1) f(u); every panel is the 25-point
    Clenshaw-Curtis rule on u = mid + half x_j, value = scale (W @ g), with
    g = f, scale = (b/2)^v, W = M(v) C25 on [0, b] and g = u^(v-1) f,
    scale = half, W = M(1) C25 elsewhere; its error is _cc_error of g plus
    the sum's rounding.  A sweep orders the panels by error (larger first,
    lower index on ties), bisects the shortest prefix whose removal leaves
    the unsplit error at most half the budget, and evaluates every child in
    one call of f; the panel count never exceeds max_panels.

    An f that rounds measurably returns (values, charge), a bound on each
    value's rounding.  Every call adds the charge, weighted by
    |scale| |W| |u^(v-1)|, to the running total rounding.  When a call
    would take that total past budget and a more precise integrand is at
    hand, the call is made again with it, and it replaces f from then on."""

    def __init__(self, f, v: complex = 1.0, precise=None):
        self.f = f
        self.v = complex(v)
        self.precise = precise
        self.nodes_used = 0
        self.rounding = 0.0
        self.budget = math.inf
        self._rule0 = _cc_rule(self.v)

    def _power(self, u: np.ndarray) -> np.ndarray:
        if self.v == 1.0:
            return np.ones(u.shape)
        return np.exp((self.v - 1.0) * np.log(u.astype(complex)))

    def sharpen(self) -> bool:
        """Make the precise integrand f from now on; False if there is none."""
        if self.precise is None:
            return False
        self.f, self.precise = self.precise, None
        return True

    def _evaluate(self, u: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
        """f at the nodes u and its charge (zero for an f without one); a
        charged f adds weights() @ charge to the rounding, with the precise
        integrand when the budget needs it."""
        fv = self.f(u)
        self.nodes_used += len(u)
        if not isinstance(fv, tuple):
            return fv, np.zeros(len(u))
        fv, charge = fv
        w = weights()
        # an infinite charge (partial sums near the overflow threshold) is
        # refused below
        with np.errstate(invalid="ignore"):
            added = float(w @ charge)
            if self.rounding + added > self.budget and self.sharpen():
                fv, charge = self.f(u)
                self.nodes_used += len(u)
                added = float(w @ charge)
        if not math.isfinite(added):
            raise OverflowError("rounding bound of the integrand overflowed "
                                f"(u up to {float(u.max()):.6g})")
        self.rounding += added
        return fv, charge

    def _panels(self, spans, points=()):
        """Value and error of each (a, b) span, the integrand at its nodes
        (a row per span, from u = b down to u = a; f itself on a panel
        [0, b]), and the integrand at the extra points with a bound on its
        rounding, all from one call of f."""
        ends = np.asarray(spans, dtype=float).reshape(-1, 2)
        points = np.asarray(points, dtype=float)
        half = 0.5 * (ends[:, 1] - ends[:, 0])
        nodes = (ends[:, 0] + half)[:, None] + half[:, None] * _CC_NODES
        at0 = ends[:, 0] == 0.0
        # the panel at 0 carries u^(v-1) in its weights, not at its nodes
        power = self._power(np.where(at0[:, None], 1.0, nodes))
        w = np.where(at0[:, None], self._rule0[0], _CC_PLAIN[0])
        scale = np.where(at0, half ** self.v, half)
        fv, charge = self._evaluate(np.concatenate([nodes.ravel(), points]), lambda: np.concatenate(
            [(np.abs(scale)[:, None] * np.abs(w) * np.abs(power)).ravel(), np.zeros(len(points))]))
        g = fv[:nodes.size].reshape(nodes.shape) * power
        value = scale * np.sum(w * g, axis=1)
        miss = np.where(at0[:, None], self._rule0[1], _CC_PLAIN[1])
        err = np.abs(scale) * (_cc_error(g, miss) + _EPS * np.sum(np.abs(w * g), axis=1))
        panels = [(complex(val), float(e)) for val, e in zip(value, err)]
        power = self._power(points)
        return panels, g, fv[nodes.size:] * power, charge[nodes.size:] * np.abs(power)

    def seed(self, spans) -> list[tuple[float, float, complex, float]]:
        """(lo, hi, value, err) of each span, from one call of f."""
        return [(*span, *panel) for span, panel in zip(spans, self._panels(spans)[0])]

    def integrate(self, a: float, b: float, abs_tol: float,
                  max_panels: int = 512) -> tuple[complex, float]:
        return self.refine(self.seed([(a, b)]), abs_tol, max_panels)

    def refine(self, work, abs_tol: float,
               max_panels: int = 512) -> tuple[complex, float]:
        """Refine the evaluated panels work (position order) as one
        worklist until their error is at most abs_tol."""
        total_err = sum(item[3] for item in work)
        while total_err > abs_tol and len(work) < max_panels:
            order = sorted(range(len(work)), key=lambda i: (-work[i][3], i))
            unsplit = total_err
            split = set()
            for i in order[:max_panels - len(work)]:
                split.add(i)
                unsplit -= work[i][3]
                if unsplit <= 0.5 * abs_tol:
                    break
            halves = []
            for i in sorted(split):
                lo, hi = work[i][:2]
                mid = 0.5 * (lo + hi)
                halves += [(lo, mid), (mid, hi)]
            children = iter(self.seed(halves))
            work = [piece for i, item in enumerate(work)
                    for piece in ((next(children), next(children)) if i in split else (item,))]
            total_err = sum(item[3] for item in work)
        return sum((item[2] for item in work), complex(0.0)), total_err


def _integrand_factory(spec: HyperSeriesSpec, ratio: complex, series_tol: float):
    """phi(u) = e^(-u) F(ratio*u) on vectors of u >= 0, with e^(-u) times
    each sum's rounding charge, and a more precise phi or None; the
    integrand is u^(v-1) phi(u), the power applied by _PanelIntegrator.
    F is summed directly at every node from one term-ratio table shared by
    every call.  For a real alternating integrand (real parameters,
    Re(ratio) < 0) the precise phi sums in double-double."""
    ratios = TermRatios(spec.numerator, spec.denominator)
    real = ratio.imag == 0.0 and ratios.real
    z = ratio.real if real else ratio

    if spec.p == 0 and spec.q == 0 and ratio == 0.0:
        return (lambda u: np.exp(-u)), None

    def charged(kernel):
        def phi(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            fvals, charge = kernel(ratios, z * u, series_tol)
            damp = np.exp(-u)
            return damp * fvals, damp * charge
        return phi

    return (charged(series._series_vector),
            charged(series._series_vector_dd) if real and ratio.real < 0.0 else None)


def laplace_numeric(v: complex, s: complex, w: complex, spec: HyperSeriesSpec,
                    tol: float = 1e-7) -> IntegralResult:
    """Adaptive quadrature value of the transform integral, where it exists
    (laplace.require_integral_exists).

    Raises SlowDecayError where the method does not reach: at s = w when
    the excess Re(sum(b) - sum(a) - v) of the algebraic tail u^rho,
    rho = -1 - excess, is below _SLOW_DECAY_MARGIN, and for p = q when
    Re(w/s) >= 1, where the integrand grows along the ray u = st.
    """
    v, s, w = complex(v), complex(s), complex(w)
    require_integral_exists(v, s, w, spec)
    ratio = w / s
    power_law = spec.p == spec.q and w != 0.0 and abs(ratio - 1.0) <= 1e-12
    if power_law:
        rho_c = v - 1.0 + sum(spec.numerator, complex(0.0)) - sum(spec.denominator, complex(0.0))
        excess = (spec.excess() - v).real
        if excess < _SLOW_DECAY_MARGIN:
            raise SlowDecayError(
                f"tail exponent rho={rho_c.real:.4f} too close to divergence for quadrature")
    elif spec.p == spec.q and w != 0.0 and ratio.real >= 1.0:
        raise SlowDecayError(
            f"Re(w/s)={ratio.real:.4g} >= 1: the integrand grows along the ray u = st")

    series_tol = min(1e-13, tol * 1e-3)
    phi, precise = _integrand_factory(spec, ratio, series_tol)
    integ = _PanelIntegrator(phi, v, precise)

    # the coarse panels give the scale of the integral, then seed the
    # refinement of [0, u_body]; the integrand's rounding may take a tenth
    # of the budget, else the seed is made again with the precise integrand
    u_body = max(24.0, 6.0 * abs(v))
    spans = [(0.0, 1.0), (1.0, 0.25 * u_body), (0.25 * u_body, u_body)]
    work = integ.seed(spans)
    scale = max(sum(abs(item[2]) for item in work), 1e-12)
    if integ.rounding > 0.1 * tol * scale and integ.sharpen():
        integ.rounding = 0.0
        work = integ.seed(spans)
        scale = max(sum(abs(item[2]) for item in work), 1e-12)
    if integ.rounding > tol * scale:
        raise OverflowError("rounding of the integrand exceeds the tolerance "
                            f"({integ.rounding:.3g} > {tol * scale:.3g})")
    abs_tol = tol * scale
    integ.budget = 0.1 * abs_tol
    total, err = integ.refine(work, 0.75 * abs_tol)

    tail_contribution = complex(0.0)
    if power_law:
        tail_contribution, tail_err = _power_law_tail(rho_c, u_body, integ, abs_tol)
        total += tail_contribution
        err += tail_err
        method = TailMethod.POWER_LAW_EXTRAPOLATION
    else:
        # exponential decay: extend panels until they are negligible, then
        # bound the remainder past U by the envelope of |h| at U (the last
        # panel's largest node value carried to U: h oscillates for p < q)
        # over a decay rate.  For Re(w/s) >= 0 that is at most the secant
        # rate of ln|h| over the panel, a bound where -ln|h| is convex
        # (h ~ u^kappa e^(-lam u) decays slower than lam for kappa > 0).
        # For Re(w/s) < 0, h ~ u^kappa e^(-u) with kappa < U / 2, and the
        # rounding noise of cancelling sums rules out a measured rate: 1/2
        lam = 1.0 if spec.p < spec.q or w == 0.0 else max(1.0 - max(ratio.real, 0.0), 0.05)
        u_lo = u_body
        width = max(8.0, 4.0 / lam)
        to_end = 0.5 * width * (1.0 - _CC_NODES)
        for _ in range(64):
            ((val, perr),), h, _, _ = integ._panels([(u_lo, u_lo + width)])
            total += val
            err += perr
            u_lo += width
            absh = np.abs(h[0])
            if ratio.real < 0.0:
                rate = 0.5
            elif absh[-1] > absh[0] > 0.0:
                rate = min(lam, math.log(absh[-1] / absh[0]) / width)
            else:
                rate = lam if absh[0] == 0.0 else 0.0
            bound = float(np.max(absh * np.exp(-rate * to_end))) / rate if rate > 0.0 else math.inf
            # no tighter than the rounding the estimate already carries
            target = max(0.125 * abs_tol, integ.rounding)
            if bound <= target and abs(val) <= target:
                err += bound
                break
        else:
            # panel budget exhausted (decay rate effectively below lam);
            # charge the unresolved remainder to the error estimate
            err += bound
        method = TailMethod.EXP_DECAY

    err += integ.rounding
    front = cmath.exp(-v * cmath.log(s))
    return IntegralResult(complex(front * total), float(abs(front) * err),
                          integ.nodes_used, method,
                          complex(front * tail_contribution))


# the power-law model: K coefficients fitted at K nodes geomspace(U, 3U, K)
_FIT_K = 6
_FIT_SPAN = 3.0


def _power_law_tail(rho_c: complex, u_body: float, integ: _PanelIntegrator,
                    abs_tol: float) -> tuple[complex, float]:
    """Integral of h over [u_body, inf) and its error.

    One integrand call evaluates the panel [u_body, 2 u_body] (then refined
    against a quarter of the budget) and the fit at U = 2 u_body
    (_fit_power_law).  While the model error exceeds another quarter, U
    doubles, again one call for the next panel and the next fit.  No node
    passes u_max = max(600, 2.4 u_body): the series overflows near
    exp(709).  When even the first fit would pass it, the fit is taken at
    U = u_body, with no panel, on nodes spanning [U, min(3U, u_max)]."""
    u_max = max(600.0, 2.4 * u_body)
    if 2.0 * _FIT_SPAN * u_body > u_max:
        xs = np.geomspace(u_body, min(_FIT_SPAN * u_body, u_max), _FIT_K)
        _, _, hv, noise = integ._panels([], xs)
        return _fit_power_law(rho_c, xs, hv, noise)
    extra, extra_err = complex(0.0), 0.0
    lo = u_body
    while True:
        upper = 2.0 * lo
        xs = np.geomspace(upper, _FIT_SPAN * upper, _FIT_K)
        (panel,), _, hv, noise = integ._panels([(lo, upper)], xs)
        val, perr = integ.refine([(lo, upper, *panel)], 0.25 * abs_tol)
        extra += val
        extra_err += perr
        tail, model_err = _fit_power_law(rho_c, xs, hv, noise)
        if model_err <= 0.25 * abs_tol or 2.0 * _FIT_SPAN * upper > u_max:
            return extra + tail, extra_err + model_err
        lo = upper


def _fit_power_law(rho_c: complex, xs: np.ndarray, hv: np.ndarray,
                   noise: np.ndarray) -> tuple[complex, float]:
    """Integral t over [U, inf), U = xs[0], of the model
    u^rho sum_{k<K} D_k (U/u)^k that interpolates h = hv at the K nodes xs,
    and its error: the larger difference from the (K-1)-coefficient fits
    without the first and without the last node (the outer fit alone
    shares most of t's error; the inner one extrapolates further), plus
    the rounding bound noise of hv carried through the fit's weights."""
    upper = xs[0]
    power = np.exp(-rho_c * np.log(xs))
    g = hv * power
    A = np.vander(upper / xs, len(xs), increasing=True)
    # the model term D_k U^k u^(rho-k) integrates over [U, inf) to
    # D_k U^(rho+1) / (k-1-rho)
    mom = cmath.exp((rho_c + 1.0) * math.log(upper)) / (np.arange(len(xs)) - 1.0 - rho_c)
    weights = np.linalg.solve(A.T, mom) * power
    t_all = complex(weights @ hv)
    t_outer = complex(np.linalg.solve(A[1:, :-1], g[1:]) @ mom[:-1])
    t_inner = complex(np.linalg.solve(A[:-1, :-1], g[:-1]) @ mom[:-1])
    return t_all, float(max(abs(t_all - t_outer), abs(t_all - t_inner)) + np.abs(weights) @ noise)


def gamma_integral_check(alpha: complex, s: complex, tol: float = 1e-9) -> IntegralResult:
    """The oracle's own calibration: with a trivial integrand factor the
    transform must equal Gamma(alpha) s^(-alpha)."""
    trivial = HyperSeriesSpec([], [], 1.0)
    return laplace_numeric(alpha, s, 0.0, trivial, tol=tol)
