"""Numerical Laplace integrals: the oracle that shares no code path with
the series-transform route.

Evaluates integral_0^inf e^(-st) t^(v-1) pFq(wt) dt after the
substitution u = st:

    value = s^(-v) * integral_0^inf e^(-u) u^(v-1) pFq((w/s) u) du.

The integrand is u^(v-1) phi(u) with phi(u) = e^(-u) pFq((w/s) u).  The
panel at u = 0 integrates the power exactly: a u^(v-1)-weighted 25-point
Clenshaw-Curtis rule, whose weights come from the Chebyshev moments of
(1+x)^(v-1) (the algebraic singularity and, for complex v, the
log-oscillation u^(i Im v) are in the weight, not in phi).  Every other
panel is Gauss-Kronrod (G7/K15) with the power applied at each node.
The coarse panels [0, 1], [1, u_body/4] and [u_body/4, u_body] give the
scale of the integral and then seed one worklist, refined in sweeps:
each sweep bisects the fewest worst panels that bring the unsplit error
under half the budget and evaluates all their children in one integrand
call.  Tails come in two flavors: exponential decay (w/s < 1, bounded
analytically) and algebraic decay u^rho for the s = w family, with
rho = v - 1 + sum(a) - sum(b) known exactly.  There one integrand call
evaluates the panel [u_body, 2 u_body] and six nodes on [U, 3U],
U = 2 u_body, where u^rho sum_{k<6} D_k (U/u)^k is fitted and integrated
analytically; the two five-coefficient fits on five of the nodes bound
the model error.  U doubles (one more call each time) only while that
bound exceeds its share of the budget.

The integrand sums pFq((w/s) u) directly at every node (no transformation
or closed form), from one table of term ratios built per integral
(series.TermRatios); the values come out the same whichever integrals
ran before.  For Re(w/s) < 0 the terms alternate and cancel, and the
precision follows the measured rounding, not a prediction: each node's
sum comes with a bound on its rounding (its charge), and every call adds
the charges, weighted like the values by the panel rules, to a running
total that goes into the error estimate.  A real integrand starts in
float.  When the seed's total passes a tenth of the absolute tolerance,
the seed is made again in double-double; when a later call would take the
total past it, that call is, and the rest of the integral stays in
double-double.  A complex alternating integrand has no double-double sum
and only carries the charge.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import series
from .errors import SlowDecayError, ValidityError
from .series import HyperSeriesSpec, TermRatios, series_values

__all__ = ["IntegralResult", "TailMethod", "gamma_integral_check", "laplace_numeric"]

# G7/K15 Gauss-Kronrod pairs: (node, gauss weight, kronrod weight);
# Gauss nodes carry both weights, Kronrod-only nodes a zero Gauss weight.
_GK15 = (
    (0.000000000000000000000000000000000, 0.417959183673469387755102040816327, 0.209482141084727828012999174891714),
    (+0.405845151377397166906606412076961, 0.381830050505118944950369775488975, 0.190350578064785409913256402421014),
    (-0.405845151377397166906606412076961, 0.381830050505118944950369775488975, 0.190350578064785409913256402421014),
    (+0.741531185599394439863864773280788, 0.279705391489276667901467771423780, 0.140653259715525918745189590510238),
    (-0.741531185599394439863864773280788, 0.279705391489276667901467771423780, 0.140653259715525918745189590510238),
    (+0.949107912342758524526189684047851, 0.129484966168869693270611432679082, 0.063092092629978553290700663189204),
    (-0.949107912342758524526189684047851, 0.129484966168869693270611432679082, 0.063092092629978553290700663189204),
    (+0.207784955007898467600689403773245, 0.0, 0.204432940075298892414161999234649),
    (-0.207784955007898467600689403773245, 0.0, 0.204432940075298892414161999234649),
    (+0.586087235467691130294144838258730, 0.0, 0.169004726639267902826583426598550),
    (-0.586087235467691130294144838258730, 0.0, 0.169004726639267902826583426598550),
    (+0.864864423359769072789712788640926, 0.0, 0.104790010322250183839876322541518),
    (-0.864864423359769072789712788640926, 0.0, 0.104790010322250183839876322541518),
    (+0.991455371120812639206854697526329, 0.0, 0.022935322010529224963732008058970),
    (-0.991455371120812639206854697526329, 0.0, 0.022935322010529224963732008058970),
)
_GK_NODES = np.array([row[0] for row in _GK15])
_GK_WG = np.array([row[1] for row in _GK15])
_GK_WK = np.array([row[2] for row in _GK15])


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


# the weighted endpoint rule: Clenshaw-Curtis nodes x_j = cos(j pi / 24);
# the 13-point rule of its error estimate reads every other one
_CC_N = 24
_CC_NODES = np.cos(np.arange(_CC_N + 1) * np.pi / _CC_N)


def _chebyshev_interpolation(n: int) -> np.ndarray:
    """C with c = C f: the coefficients c_0 .. c_n of the degree-n
    Chebyshev interpolant of f sampled at x_j = cos(j pi / n)."""
    k = np.arange(n + 1)
    c = (2.0 / n) * np.cos(np.outer(k, k) * np.pi / n)
    c[:, [0, n]] *= 0.5
    c[[0, n], :] *= 0.5
    return c


_CC_C25 = _chebyshev_interpolation(_CC_N)
_CC_C13 = _chebyshev_interpolation(_CC_N // 2)


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


class _PanelIntegrator:
    """Adaptive bisection refined in deterministic sweeps.

    With a weight exponent v the integrand is u^(v-1) f(u): a panel [0, b]
    uses the u^(v-1)-weighted 25-point Clenshaw-Curtis rule, with
    |I25 - I13| as its error, and every other panel G7/K15 with the power
    applied at each node.  Without one, every panel is G7/K15 of f.

    A sweep orders the panels by error (larger first, lower index on ties),
    bisects the shortest prefix whose removal leaves the unsplit panels'
    error at most half the budget, and evaluates every child in one call
    of f.  The panel count never exceeds max_panels.

    An f that rounds measurably returns (values, charge), a bound on each
    value's rounding.  Every call adds the charge, weighted like the values
    by the rule (absolute weights), to the running total rounding.  When a
    call would take that total past budget and a more precise integrand
    precise is at hand, the call is made again with it, and it replaces f
    for the rest of the integral."""

    def __init__(self, f, v: complex | None = None, precise=None):
        self.f = f
        self.v = v
        self.precise = precise
        self.nodes_used = 0
        self.rounding = 0.0
        self.budget = math.inf
        if v is not None:
            # W = M @ C integrates (1+x)^(v-1) times the Chebyshev
            # interpolant of f exactly, for the 25- and the 13-point rule
            m = _power_moments(v, _CC_N + 1)
            self._w25, self._w13 = m @ _CC_C25, m[:_CC_N // 2 + 1] @ _CC_C13
            self._abs_w25 = np.abs(self._w25)

    def _power(self, u: np.ndarray):
        if self.v is None or self.v == 1.0:
            return 1.0
        return np.exp((self.v - 1.0) * np.log(u.astype(complex)))

    def sharpen(self) -> bool:
        """Make the precise integrand f from now on; False if there is none."""
        if self.precise is None:
            return False
        self.f, self.precise = self.precise, None
        return True

    def _evaluate(self, u: np.ndarray, weights) -> np.ndarray:
        """f at the nodes u; a charged f adds weights() @ charge to the
        rounding, with the precise integrand when the budget needs it."""
        fv = self.f(u)
        self.nodes_used += len(u)
        if not isinstance(fv, tuple):
            return fv
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
        return fv

    def _panels(self, spans, points=()) -> tuple[list[tuple[complex, float]], np.ndarray]:
        """Value and error of each (a, b) span, and the integrand at the
        extra points, all from one call of f."""
        ends = np.asarray(spans, dtype=float).reshape(-1, 2)
        weighted = (ends[:, 0] == 0.0) & (self.v is not None)
        gk, cc = ends[~weighted], ends[weighted]
        half = 0.5 * (gk[:, 1] - gk[:, 0])
        mid = 0.5 * (gk[:, 0] + gk[:, 1])
        x = np.concatenate([(mid[:, None] + half[:, None] * _GK_NODES).ravel(),
                            np.asarray(points, dtype=float)])
        power = self._power(x)
        scale = (0.5 * cc[:, 1]) ** self.v if len(cc) else np.empty(0)

        def weights():
            # the rules' absolute weights at every node; none at the points
            gk_w = np.concatenate([(_GK_WK * half[:, None]).ravel(), np.zeros(len(points))])
            cc_w = np.abs(scale)[:, None] * self._abs_w25 if len(cc) else np.empty(0)
            return np.concatenate([gk_w * np.abs(power), np.ravel(cc_w)])

        fv = self._evaluate(np.concatenate([x, (0.5 * cc[:, 1:] * (1.0 + _CC_NODES)).ravel()]),
                            weights)
        hv = fv[:len(x)] * power
        body = hv[:len(_GK_NODES) * len(mid)].reshape(len(mid), len(_GK_NODES))
        value = np.empty(len(ends), dtype=complex)
        err = np.empty(len(ends))
        value[~weighted] = np.sum(_GK_WK * body, axis=1) * half
        err[~weighted] = np.abs(value[~weighted] - np.sum(_GK_WG * body, axis=1) * half)
        if len(cc):
            phi = fv[len(x):].reshape(len(cc), len(_CC_NODES))
            value[weighted] = scale * (phi @ self._w25)
            err[weighted] = np.abs(value[weighted] - scale * (phi[:, ::2] @ self._w13))
        panels = [(complex(val), float(e)) for val, e in zip(value, err)]
        return panels, hv[len(_GK_NODES) * len(mid):]

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
        total = complex(0.0)
        for _lo, _hi, val, _e in work:
            total += val
        return total, total_err


def _integrand_factory(spec: HyperSeriesSpec, ratio: complex, series_tol: float):
    """phi(u) = e^(-u) F(ratio*u) evaluated on vectors of u >= 0, and a
    more precise phi or None; the integrand is u^(v-1) phi(u), the power
    applied by _PanelIntegrator.

    F is summed directly at every node from one term-ratio table, built
    here and shared by every call of phi.  For Re(ratio) < 0 the terms
    alternate and cancel, and phi also returns e^(-u) times each sum's
    rounding charge; with real parameters and a real ratio the precise phi
    sums in double-double.  Other integrands carry no charge."""
    ratios = TermRatios(spec.numerator, spec.denominator)
    real = ratio.imag == 0.0 and ratios.real
    z = ratio.real if real else ratio

    if spec.p == 0 and spec.q == 0 and ratio == 0.0:
        return (lambda u: np.exp(-u)), None
    if ratio.real >= 0.0:
        return (lambda u: np.exp(-u) * series_values(ratios, z * u, series_tol)), None

    def charged(kernel):
        def phi(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            fvals, charge = kernel(ratios, z * u, series_tol)
            damp = np.exp(-u)
            return damp * fvals, damp * charge
        return phi

    return (charged(series._series_vector),
            charged(series._series_vector_dd) if real else None)


def laplace_numeric(v: complex, s: complex, w: complex, spec: HyperSeriesSpec,
                    tol: float = 1e-7) -> IntegralResult:
    """Adaptive quadrature value of the transform integral.

    Raises ValidityError when the stated existence clauses fail and
    SlowDecayError when the algebraic tail exponent is within 0.05 of the
    divergence boundary (rho >= -1.05).
    """
    v, s, w = complex(v), complex(s), complex(w)
    if v.real <= 0.0:
        raise ValidityError("Re(v)<=0")
    if s.real <= 0.0:
        raise ValidityError("Re(s)<=0")
    if spec.p > spec.q:
        raise ValidityError("integrand requires p <= q")
    ratio = w / s
    power_law = spec.p == spec.q and w != 0.0 and abs(ratio - 1.0) <= 1e-12
    rho = float("-inf")
    if power_law:
        rho_c = v - 1.0 + sum(spec.numerator, complex(0.0)) - sum(spec.denominator, complex(0.0))
        rho = rho_c.real
        if rho >= -1.0:
            raise ValidityError("Re(sum(b)-sum(a)-v)<=0: integral diverges at s=w")
        if rho >= -1.05:
            raise SlowDecayError(
                f"tail exponent rho={rho:.4f} too close to divergence for quadrature")
    elif spec.p == spec.q and w != 0.0 and ratio.real >= 1.0:
        raise ValidityError("Re(s)<=Re(w)")

    series_tol = min(1e-13, tol * 1e-3)
    phi, precise = _integrand_factory(spec, ratio, series_tol)
    integ = _PanelIntegrator(phi, v, precise)

    # the coarse panels give the scale of the integral, then seed the
    # refinement of [0, u_body] against the real budget; the integrand's
    # rounding may take a tenth of it, else the seed is made again with
    # the precise integrand
    u_body = max(24.0, 6.0 * abs(v))
    spans = [(0.0, 1.0), (1.0, 0.25 * u_body), (0.25 * u_body, u_body)]
    work = integ.seed(spans)
    scale = max(sum(abs(item[2]) for item in work), 1e-12)
    if integ.rounding > 0.1 * tol * scale and integ.sharpen():
        integ.rounding = 0.0
        work = integ.seed(spans)
        scale = max(sum(abs(item[2]) for item in work), 1e-12)
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
        # bound the remainder by |h(U)| / lambda (U evaluated with the panel);
        # for Re(w/s) < 0, h decays like e^(-u) times a power, so lambda
        # stays at 1
        lam = 1.0 if spec.p < spec.q or w == 0.0 else max(1.0 - max(ratio.real, 0.0), 0.05)
        u_lo = u_body
        width = max(8.0, 4.0 / lam)
        for _ in range(64):
            ((val, perr),), edge = integ._panels([(u_lo, u_lo + width)], [u_lo + width])
            total += val
            err += perr
            u_lo += width
            bound = abs(edge[0]) / lam
            if bound <= 0.125 * abs_tol and abs(val) <= 0.125 * abs_tol:
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

    Beyond U the integrand is fitted as h(u) = u^rho sum_{k<6} D_k (U/u)^k
    at six nodes geomspace(U, 3U, 6), with rho known exactly, and the model
    is integrated analytically (_fit_power_law).  One integrand call
    evaluates the panel [u_body, 2 u_body] (then refined against a quarter
    of the budget) and the fit at U = 2 u_body.  While the model error
    exceeds another quarter, U doubles, again one call for the next panel
    and the next fit.  No node passes u_max = max(600, 2.4 u_body): double
    precision runs out near exp(709) in the series.  When even the first
    fit would pass it, the fit is taken at U = u_body, with no panel, on
    nodes spanning [U, min(3U, u_max)]."""
    u_max = max(600.0, 2.4 * u_body)
    if 2.0 * _FIT_SPAN * u_body > u_max:
        xs = np.geomspace(u_body, min(_FIT_SPAN * u_body, u_max), _FIT_K)
        _, hv = integ._panels([], xs)
        return _fit_power_law(rho_c, xs, hv)
    extra = complex(0.0)
    extra_err = 0.0
    lo = u_body
    while True:
        upper = 2.0 * lo
        xs = np.geomspace(upper, _FIT_SPAN * upper, _FIT_K)
        (panel,), hv = integ._panels([(lo, upper)], xs)
        val, perr = integ.refine([(lo, upper, *panel)], 0.25 * abs_tol)
        extra += val
        extra_err += perr
        tail, model_err = _fit_power_law(rho_c, xs, hv)
        if model_err <= 0.25 * abs_tol or 2.0 * _FIT_SPAN * upper > u_max:
            return extra + tail, extra_err + model_err
        lo = upper


def _fit_power_law(rho_c: complex, xs: np.ndarray, hv: np.ndarray) -> tuple[complex, float]:
    """Integral t over [U, inf), U = xs[0], of the model
    u^rho sum_{k<K} D_k (U/u)^k that interpolates h = hv at the K nodes xs,
    and its model error: the larger difference from the (K-1)-coefficient
    fits that leave out the first and the last node.  The outer fit alone
    shares most of t's truncation error and can miss it several times
    over; the inner one extrapolates further and is the cautious one."""
    upper = xs[0]
    g = hv * np.exp(-rho_c * np.log(xs))
    A = np.vander(upper / xs, len(xs), increasing=True)
    # the model term D_k U^k u^(rho-k) integrates over [U, inf) to
    # D_k U^(rho+1) / (k-1-rho)
    mom = cmath.exp((rho_c + 1.0) * math.log(upper)) / (np.arange(len(xs)) - 1.0 - rho_c)
    t_all = complex(np.linalg.solve(A, g) @ mom)
    t_outer = complex(np.linalg.solve(A[1:, :-1], g[1:]) @ mom[:-1])
    t_inner = complex(np.linalg.solve(A[:-1, :-1], g[:-1]) @ mom[:-1])
    return t_all, float(max(abs(t_all - t_outer), abs(t_all - t_inner)))


def gamma_integral_check(alpha: complex, s: complex, tol: float = 1e-9) -> IntegralResult:
    """The oracle's own calibration: with a trivial integrand factor the
    transform must equal Gamma(alpha) s^(-alpha)."""
    trivial = HyperSeriesSpec([], [], 1.0)
    return laplace_numeric(alpha, s, 0.0, trivial, tol=tol)
