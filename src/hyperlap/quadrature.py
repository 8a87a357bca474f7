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
children in one integrand call.  Tails come in two flavors.

Exponential decay (w/s < 1): panels are added until one is negligible,
and the remainder is bounded by the envelope of |h| at the end over its
decay rate.  How many panels that takes is predicted before the first of
them, from |h(u_body)| and h ~ u^kappa e^(-decay u) (_TailModel), and the
predicted panels are evaluated in one integrand call while they start
within twice the call's start and end below the series' overflow range.
Each panel of the call is charged for the rows the call summed, and the
loop takes them one at a time, adding each one's charge as it takes it
(the rule of every integrand call), so panels past the stop change
nothing.  Past the prediction it goes on one panel a call.  Where the
model runs past the overflow range, the tail may be hopeless: for
positive terms, the largest term of F bounds |h| below and, with a bound
on F'/F, the tail's rounding above, and where those keep the loop's bound
above its target on every panel up to the one whose terms overflow, the
integral is refused with SlowDecayError before the first tail panel
(_tail_overflows, from the integral's term-ratio table).

Algebraic decay u^rho for the s = w family, rho = v - 1 + sum(a) - sum(b):
u^rho sum_{k<6} D_k (U/u)^k is fitted at six nodes on [U, 3U] and
integrated analytically (_power_law_tail); the fit's systems depend only on
the node ratios and are built at import.

The integrand sums pFq((w/s) u) directly at every node from one table of
term ratios built per integral (series.TermRatios), so the values do not
depend on earlier integrals.  Each sum comes with a bound on its rounding
(its charge), and the charges, weighted like the values, go into a
running total that goes into the error estimate.  For Re(w/s) < 0 the
terms alternate and cancel, real or complex: the seed is summed in float,
and from the next call on every node whose weighted charge passes its
share of a tenth of the absolute tolerance is summed again exactly
(series._sum_exact), the seed too if its rounding passes that tenth; a
seed that still rounds by more than the whole tolerance is refused.
"""

from __future__ import annotations

import cmath
import contextlib
import enum
import itertools
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
# C25^T as a panel product takes it, and T_25 .. T_48 at the nodes: for
# complex values, the C-ordered complex copies numpy would make per product
_CC_C25T = (_CC_C25.T, np.ascontiguousarray(_CC_C25.T, dtype=complex))
_CC_NEXT = np.cos(np.outer(np.arange(_CC_N + 1, 2 * _CC_N + 1), _CC_THETA)).astype(complex)
_CC_M = np.arange(1.0, _CC_N + 1.0)
_EPS = np.finfo(float).eps

# at s = w the tail decays like u^rho, rho = -1 - excess; an excess below
# this margin is refused, and the sampler keeps its s = w draws above it
_SLOW_DECAY_MARGIN = 0.05


def _power_moments(v: complex, n: int) -> np.ndarray:
    """M_k = integral_-1^1 (1+x)^(v-1) T_k(x) dx for k < n, by the
    Piessens-Branders recurrence (QUADPACK's QAWS moments), on Python
    scalars."""
    two_v = 2.0 ** v
    m = [two_v / v]
    m.append(m[0] * (v - 1.0) / (v + 1.0))
    for k in range(2, n):
        m.append(-(two_v + k * (k - v - 1.0) * m[k - 1]) / ((k - 1.0) * (k + v)))
    return np.array(m[:n], dtype=complex)


def _cc_rule(v: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule for (1+x)^(v-1) times the Chebyshev interpolant of the 25
    values: the moments M_0 .. M_24, whose dot product with the values'
    Chebyshev coefficients is the integral (real for real v); the absolute
    weights |W|, W = M C25, which bound its rounding; and the rule's error
    |W @ T_k - M_k| on T_25 .. T_48."""
    m = _power_moments(v, 2 * _CC_N + 1)
    w = m[:_CC_N + 1] @ _CC_C25
    moments = m[:_CC_N + 1].real if complex(v).imag == 0.0 else m[:_CC_N + 1]
    return moments, np.abs(w), np.abs(_CC_NEXT @ w - m[_CC_N + 1:])


_CC_PLAIN = _cc_rule(1.0)


def _cc_error(a: np.ndarray, g_max: np.ndarray, miss: np.ndarray) -> np.ndarray:
    """Truncation error of the rule on each row of Chebyshev coefficient
    magnitudes a (values at most g_max): the coefficients decay like r^k
    (c_14..16 to c_22..24), so those past the rule are about tail r^m, each
    costing miss[m-1], the rule's error on T_(24+m); 4 times that sum, a
    column per column of miss.  A tail below 24 eps g_max is rounding."""
    low, _, tail = np.maximum.reduceat(a, (14, 17, 22), axis=1).T
    tail = np.where(tail > _CC_N * _EPS * g_max, tail, 0.0)
    r = np.minimum(tail / np.maximum(low, 1e-300), 1.0) ** 0.125
    return (4.0 * tail)[:, None] * ((r[:, None] ** _CC_M) @ miss)


class _PanelIntegrator:
    """Adaptive bisection refined in deterministic sweeps.

    The integrand is u^(v-1) f(u); every panel is the 25-point
    Clenshaw-Curtis rule on u = mid + half x_j, value = scale c @ M, with c
    the Chebyshev coefficients of g and M the rule's moments: g = f,
    scale = (b/2)^v, M = M(v) on [0, b] and g = u^(v-1) f, scale = half,
    M = M(1) elsewhere; its error is _cc_error of c plus the sum's
    rounding.  A sweep orders the panels by error (larger first, lower
    index on ties), bisects the shortest prefix whose removal leaves the
    unsplit error at most half the budget, and evaluates every child in
    one call of f; the panel count never exceeds max_panels.

    An f that rounds measurably returns (values, charge), a bound on each
    value's rounding for the rows its call summed.  Every call of f goes
    through one rule: batch evaluates its panels, and take hands them out
    in order, adding each panel's charge, weighted by |scale| |W|
    |u^(v-1)|, to the running total rounding as it is taken; panels a
    caller never takes charge nothing."""

    def __init__(self, f, v: complex = 1.0):
        self.f = f
        self.v = complex(v)
        self.nodes_used = 0
        self.rounding = 0.0
        # the plain rule and the rule of a panel at 0, as the two columns
        # of its moments, absolute weights and errors past the rule
        rule0 = _CC_PLAIN if self.v == 1.0 else _cc_rule(self.v)
        self._rules = [np.array([plain, at0]).T for plain, at0 in zip(_CC_PLAIN, rule0)]
        self._v0 = self.v if self.v.imag else self.v.real

    def _power(self, u: np.ndarray):
        if self.v.imag == 0.0:
            return u ** (self.v.real - 1.0)
        return np.exp((self.v - 1.0) * np.log(u))

    def batch(self, spans, points=()):
        """One call of f at the nodes of the (a, b) spans and at the extra
        points: the spans as panels still to be taken, [(span, (value,
        error), |integrand| row, weighted charge)] (the row from u = b down
        to u = a; f itself on a panel [0, b]), and the integrand at the
        points with a bound on its rounding.  An f that returns no charge
        charges nothing.  A panel at 0 comes first: spans are in position
        order."""
        half = np.array([0.5 * (b - a) for a, b in spans])
        nodes = (np.array([a for a, _ in spans]) + half)[:, None] + half[:, None] * _CC_NODES
        at0 = bool(spans) and spans[0][0] == 0.0
        fv = self.f(np.concatenate([nodes.ravel(), points]) if len(points) else nodes.ravel())
        self.nodes_used += nodes.size + len(points)
        fv, charge = fv if isinstance(fv, tuple) else (fv, np.zeros(fv.shape))
        moments, absw, miss = self._rules
        # u^(v-1) may overflow a double: a panel whose charge is then not
        # finite is refused when it is taken
        with np.errstate(over="ignore", invalid="ignore"):
            g, power = fv[:nodes.size].reshape(nodes.shape), 1.0
            if self.v != 1.0:
                if at0:
                    nodes[0] = 1.0  # the panel at 0 carries u^(v-1) in its weights
                power = self._power(nodes)
                g = g * power
            coef = g @ _CC_C25T[g.dtype.kind == "c"]
            absg = np.abs(g)
            # both rules on every row: the plain one in the first column,
            # the one of a panel at 0 in the second
            both = coef @ moments
            errs = _cc_error(np.abs(coef), absg.max(axis=1), miss) + _EPS * (absg @ absw)
            weighted = (charge[:nodes.size].reshape(nodes.shape) * np.abs(power)) @ absw
            hv = noise = points
            if len(points):
                power = self._power(points)
                hv, noise = fv[nodes.size:] * power, charge[nodes.size:] * np.abs(power)
        value, err, scale = both[:, 0], errs[:, 0], half
        if at0:
            value[0], err[0], weighted[0, 0] = both[0, 1], errs[0, 1], weighted[0, 1]
            scale = half.astype(np.result_type(half, self._v0))
            scale[0] = half[0] ** self._v0
        abs_scale = np.abs(scale) if at0 else half
        panels = zip(map(complex, (scale * value).tolist()), (abs_scale * err).tolist())
        pending = list(zip(spans, panels, absg, (abs_scale * weighted[:, 0]).tolist()))
        return pending, hv, noise

    def take(self, pending: list):
        """The first panel of a batch, removed from it, with its charge
        added now; a charge that is not finite (the sums or u^(v-1) past
        the largest double) is refused."""
        span, panel, absg, added = pending.pop(0)
        if not math.isfinite(added):
            what = ("rounding bound of the integrand" if np.isfinite(absg).all()
                    else "u^(v-1) in the integrand")
            raise OverflowError(f"{what} overflowed (u up to {span[1]:.6g})")
        self.rounding += added
        return panel, absg

    def _panels(self, spans, points=()):
        """Value and error of each (a, b) span, |integrand| at its nodes
        and the integrand at the extra points with a bound on its rounding,
        all from one call of f (batch), the panels taken in order (take)."""
        pending, hv, noise = self.batch(spans, points)
        taken = [self.take(pending) for _ in spans]
        return [panel for panel, _ in taken], [absg for _, absg in taken], hv, noise

    def seed(self, spans) -> list[tuple[float, float, complex, float]]:
        """(lo, hi, value, err) of each span, from one call of f."""
        return [(*span, *panel) for span, panel in zip(spans, self._panels(spans)[0])]

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


def _integrand_factory(ratios: TermRatios, ratio: complex, series_tol: float, exact=None):
    """phi(u) = e^(-u) F(ratio*u) on vectors of u >= 0, with e^(-u) times
    each sum's rounding charge (the rows its call summed); the integrand
    is u^(v-1) phi(u), the power applied by _PanelIntegrator.  F is summed
    directly at every node from the integral's term-ratio table, shared by
    every call.

    With exact = (v, density), the same float sums, and every node where
    |u^(v-1)| e^(-u) charge passes the density (its weighted charge past
    its share: the rule weight |scale W_j| is on both sides) summed again
    exactly (series._resum_exact), its charge then the exact sum's
    estimate."""
    real = ratio.imag == 0.0 and ratios.real
    z = ratio.real if real else ratio

    if not ratios.numerator and not ratios.denominator and ratio == 0.0:
        return lambda u: np.exp(-u)

    def phi(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = z * u
        fvals, charge = series._series_vector(ratios, x, series_tol)
        damp = np.exp(-u)
        if exact is not None:
            v, density = exact
            with np.errstate(divide="ignore", invalid="ignore") if v.real < 1.0 and not u.all() \
                    else contextlib.nullcontext():  # u = 0
                loud = ~(u ** (v.real - 1.0) * damp * charge <= density)
            if loud.any():
                series._resum_exact(ratios, x, fvals, charge, loud.nonzero()[0], series_tol)
        return damp * fvals, damp * charge
    return phi


# |w/s| u past which the series' terms overflow a double (e^709.8): no
# batch of tail panels reaches past it
_Z_OVERFLOW = 700.0


@dataclass(frozen=True)
class _TailModel:
    """|h(u)| ~ h_body (u / u_body)^kappa e^(-decay (u - u_body)) past u_body."""

    h_body: float
    u_body: float
    decay: float
    kappa: float

    def __call__(self, u: float) -> float:
        # capped in the log: a large kappa must not raise OverflowError
        growth = self.kappa * math.log(u / self.u_body) - self.decay * (u - self.u_body)
        return self.h_body * math.exp(min(growth, 700.0))

    def panels(self, width: float, rate: float, target: float) -> int:
        """The panels of the given width from u_body that the exponential
        tail takes on this model: the first count whose last panel [a, b]
        has the bound max(|h(a)| e^(-rate width), |h(b)|) / rate and the
        integral (|h(a)| - |h(b)|) / secant rate both within target; 64
        at most, and 1 when |h(u_body)| gives no scale."""
        if not 0.0 < self.h_body < math.inf:
            return 1
        for count in range(1, 65):
            a = self.u_body + (count - 1) * width
            ha, hb = self(a), self(a + width)
            if ha == 0.0:
                return count
            if hb == math.inf:
                continue
            drop = math.log(ha / hb) if hb > 0.0 else math.inf
            integral = ha * width if drop == 0.0 else (ha - hb) * width / drop
            bound = max(ha * math.exp(-rate * width), hb) / rate
            if bound <= target and integral <= target:
                return count
        return 64


def _tail_overflows(ratios: TermRatios, v: complex, ratio: complex, u_body: float,
                    width: float, lam: float, target: float, rounding: float,
                    series_tol: float) -> bool:
    """Whether the exponential tail's loop from u_body, with the rounding
    total so far, must run into the series' overflow.  Decided for p = q,
    w/s = z > 0 and positive parameters only, where every term t_n (z u)^n
    of F(z u) is positive; else False.

    On a panel [a, b] the loop stops only if |h(b)| / lam, at most the
    bound it reads there, is within its target: target (0.125 of the
    absolute tolerance) or the rounding total, whichever is larger.  At
    each panel end the terms, in logs from a term-ratio table
    (TermRatios.log_walk) over the first N = 2 z b + 64, bound F(z b)
    below by the largest of them and above by N + 1 times it plus a
    geometric bound on the rest.  Inside a panel F'/F <= R =
    prod max(1, a_i / b_i), so |h| grows from its bound at a at most like
    u^(Re v - 1) e^((z R - 1) u).  The panel is charged for the rows its
    call summed, and that call ends at b or, holding panels that start
    within twice its start, by min(a + b, u_stop), u_stop = 700 / z; with
    N the window at that end, it sums at most N + 4 rows (the window's
    last term is below series_tol times its largest), so the panel charges
    at most 2 (p+q+3) eps (N + 4) |h| at a node, and at most that times
    width sup|h| in all.  True where, on each of the loop's 64
    panels up to the first whose largest term passes the largest double,
    |h(b)| / lam stays above both the target and the rounding so bounded,
    and the kernel sums through that term: no term before it is below
    series_tol times (n + 1) times the largest before it, a bound of the
    sum, so the kernel raises OverflowError there."""
    if (len(ratios.numerator) != len(ratios.denominator) or ratio.imag != 0.0
            or ratio.real <= 0.0 or not ratios.real
            or min((*ratios.numerator, *ratios.denominator), default=1.0) <= 0.0):
        return False
    pairs = list(zip(ratios.numerator, ratios.denominator))
    z, power = ratio.real, v.real - 1.0
    rise = max(0.0, z * math.prod(max(1.0, a / b) for a, b in pairs) - 1.0) * width
    unit = 2.0 * (2 * len(pairs) + 3) * _EPS * width
    log_tol = math.log(series_tol)
    log_max = math.log(np.finfo(float).max)
    margin = 1e-6  # far above the rounding of the logs
    ratios.log_walk(int(2.0 * _Z_OVERFLOW) + 4 * series._CHUNK)  # grown once in practice

    def terms(u: float):
        """log t_1 .. log t_N at z u, and log |h(u)| from below and from
        above; None where the window bounds neither the rows nor the rest."""
        stop = int(2.0 * z * u) + 2 * series._CHUNK
        walk = ratios.log_walk(stop)[:stop] + np.arange(1.0, stop + 1.0) * math.log(z * u)
        top = max(float(walk.max()), 0.0)  # log t_0 = 0
        # the terms past the window fall at least like rho^m
        rho = z * u / (stop + 1.0) * math.prod(max(1.0, (a + stop) / (b + stop)) for a, b in pairs)
        if walk[-1] > top + log_tol or rho >= 1.0:
            return None
        low = power * math.log(u) - u + top
        return walk, low, low + math.log(stop + 1.0 + rho / (1.0 - rho))

    ends = terms(u_body)
    a = u_body
    for _ in range(64):
        if ends is None:
            return False
        b = a + width
        log_sup = ends[2] + max(0.0, power * math.log(b / a)) + rise  # of |h| on [a, b]
        ends = terms(b)
        if ends is None or log_sup > log_max:
            return False
        walk, low, _ = ends
        peak = int(walk.argmax())
        if walk[peak] > log_max + margin:
            logs = np.concatenate([[0.0], walk[:peak + 1]])  # log t_0 .. the largest
            floor = np.maximum.accumulate(logs[:-1]) + np.log(np.arange(1.0, peak + 2.0)) + log_tol
            return bool((logs[1:] > floor + margin).all())
        reach = max(b, min(a + b, _Z_OVERFLOW / z))  # the call's last node
        rows = ends if reach == b else terms(reach)
        if rows is None:
            return False
        rounding += unit * (len(rows[0]) + 4) * math.exp(log_sup)
        if low <= math.log(lam * max(target, rounding)) + margin:
            return False
        a = b
    return False


def laplace_numeric(v: complex, s: complex, w: complex, spec: HyperSeriesSpec,
                    tol: float = 1e-7) -> IntegralResult:
    """Adaptive quadrature value of the transform integral, where it exists
    (laplace.require_integral_exists).

    Raises SlowDecayError where the method does not reach: at s = w when
    the excess Re(sum(b) - sum(a) - v) of the algebraic tail u^rho,
    rho = -1 - excess, is below _SLOW_DECAY_MARGIN; for p = q when
    Re(w/s) >= 1, where the integrand grows along the ray u = st; and for
    p = q, 0 < w/s < 1 and positive parameters when the exponential tail is
    bound to stay above its target out to where the series' terms overflow
    (_tail_overflows).  Elsewhere such a tail runs into the overflow and
    raises OverflowError.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError("tol must be positive")
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
    ratios = TermRatios(spec.numerator, spec.denominator)
    integ = _PanelIntegrator(_integrand_factory(ratios, ratio, series_tol), v)

    # the coarse panels give the scale of the integral, then seed the
    # refinement of [0, u_body]
    u_body = max(24.0, 6.0 * abs(v))
    spans = [(0.0, 1.0), (1.0, 0.25 * u_body), (0.25 * u_body, u_body)]
    pending = integ.batch(spans)[0]
    # a seed value lies within its error and charge of its panel's integral,
    # so their excess over those bounds the integral's scale from below
    floor = max(sum(max(abs(val) - err - added, 0.0) for _, (val, err), _, added in pending),
                1e-12)
    panels, absh = zip(*[integ.take(pending) for _ in spans])
    scale = max(sum(abs(val) for val, _ in panels), 1e-12)
    if ratio.real < 0.0:
        # from here on every node past its share of a tenth of tol times
        # that floor, spread over [0, 2 u_body], is summed again exactly,
        # and so is the seed when its own rounding passes that tenth
        integ.f = _integrand_factory(ratios, ratio, series_tol, (v, 0.05 * tol * floor / u_body))
        if integ.rounding > 0.1 * tol * scale:
            integ.rounding = 0.0
            panels, absh, _, _ = integ._panels(spans)
            scale = max(sum(abs(val) for val, _ in panels), 1e-12)
    work = [(*span, *panel) for span, panel in zip(spans, panels)]
    h_body = float(absh[-1][0])  # |h(u_body)|: the last panel's first node
    if integ.rounding > tol * scale:
        raise OverflowError("rounding of the integrand exceeds the tolerance "
                            f"({integ.rounding:.3g} > {tol * scale:.3g})")
    abs_tol = tol * scale
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
        decay = 1.0 if spec.p < spec.q or w == 0.0 else 1.0 - max(ratio.real, 0.0)
        lam = max(decay, 0.05)
        width = max(8.0, 4.0 / lam)
        to_end = 0.5 * width * (1.0 - _CC_NODES)
        # the panels the loop will take, predicted from h ~ u^kappa
        # e^(-decay u) through |h(u_body)|; kappa is known for p = q
        growth = spec.p == spec.q and w != 0.0 and ratio.real > 0.0  # F ~ e^(ratio u)
        kappa = (v - 1.0 + sum(spec.numerator, complex(0.0))
                 - sum(spec.denominator, complex(0.0))).real if growth else 0.0
        model = _TailModel(h_body, u_body, decay, kappa)
        target = max(0.125 * abs_tol, integ.rounding)
        u_stop = _Z_OVERFLOW / abs(ratio) if ratio != 0.0 else math.inf
        ahead = model.panels(width, 0.5 if ratio.real < 0.0 else lam, target)
        # a tail the model runs past the overflow range may be hopeless; the
        # model only picks it out (it can overstate |h|: a large numerator
        # parameter keeps F far from its asymptotic form at u_body), and the
        # refusal rests on _tail_overflows' bounds of |h|
        if (growth and ahead > (u_stop - u_body) // width
                and _tail_overflows(ratios, v, ratio, u_body, width, lam, 0.125 * abs_tol,
                                    integ.rounding, series_tol)):
            raise SlowDecayError(
                f"w/s={ratio.real:.4g}: the exponential tail stays above its target "
                "out to where the series overflows")
        u_lo = u_body
        pending = []
        for taken in range(64):
            if not pending:
                # one call for the predicted panels that start within
                # twice the call's start (a narrow range of |w/s| u: a call
                # costs what its largest node costs) and end below the
                # overflow range; past the prediction, one panel a call
                fit = int(min(u_lo + width, u_stop - u_lo) // width)
                count = max(1, min(ahead - taken, fit, 64 - taken))
                ends = list(itertools.accumulate([width] * count, initial=u_lo))
                spans = list(zip(ends, ends[1:]))
                try:
                    pending = integ.batch(spans)[0]
                except OverflowError:
                    if count == 1:
                        raise
                    pending = integ.batch(spans[:1])[0]
            (val, perr), absh = integ.take(pending)
            total += val
            err += perr
            u_lo += width
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


def _fit_systems(span: float) -> tuple[np.ndarray, np.ndarray]:
    """The fit's node ratios x = geomspace(1, span, K), nodes U x, and its
    three systems, which depend on those ratios alone: A^T, A without its
    first node and last coefficient, and A without its last node and last
    coefficient, A_jk = (U / (U x_j))^k; the two smaller ones are padded
    with a unit diagonal, so one batched solve serves all three."""
    x = np.geomspace(1.0, span, _FIT_K)
    a = np.vander(1.0 / x, _FIT_K, increasing=True)
    systems = np.tile(np.eye(_FIT_K, dtype=complex), (3, 1, 1))
    systems[0] = a.T
    systems[1, :-1, :-1] = a[1:, :-1]
    systems[2, :-1, :-1] = a[:-1, :-1]
    return x, systems


_FIT = _fit_systems(_FIT_SPAN)


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
        fit = _fit_systems(min(_FIT_SPAN, u_max / u_body))
        _, _, hv, noise = integ._panels([], u_body * fit[0])
        return _fit_power_law(rho_c, u_body, hv, noise, fit)
    extra, extra_err = complex(0.0), 0.0
    lo = u_body
    while True:
        upper = 2.0 * lo
        (panel,), _, hv, noise = integ._panels([(lo, upper)], upper * _FIT[0])
        val, perr = integ.refine([(lo, upper, *panel)], 0.25 * abs_tol)
        extra += val
        extra_err += perr
        tail, model_err = _fit_power_law(rho_c, upper, hv, noise)
        if model_err <= 0.25 * abs_tol or 2.0 * _FIT_SPAN * upper > u_max:
            return extra + tail, extra_err + model_err
        lo = upper


def _fit_power_law(rho_c: complex, upper: float, hv: np.ndarray, noise: np.ndarray,
                   fit: tuple[np.ndarray, np.ndarray] = _FIT) -> tuple[complex, float]:
    """Integral t over [U, inf), U = upper, of the model
    u^rho sum_{k<K} D_k (U/u)^k that interpolates h = hv at the K nodes
    U x (fit = (x, systems), from _fit_systems), and its error: the larger
    difference from the (K-1)-coefficient fits without the first and
    without the last node (the outer fit alone shares most of t's error;
    the inner one extrapolates further), plus the rounding bound noise of
    hv carried through the fit's weights."""
    x, systems = fit
    power = np.exp(-rho_c * np.log(upper * x))
    g = hv * power
    # the model term D_k U^k u^(rho-k) integrates over [U, inf) to
    # D_k U^(rho+1) / (k-1-rho)
    mom = cmath.exp((rho_c + 1.0) * math.log(upper)) / (np.arange(_FIT_K) - 1.0 - rho_c)
    rhs = np.zeros((3, _FIT_K, 1), dtype=complex)
    rhs[0, :, 0] = mom
    rhs[1, :-1, 0] = g[1:]
    rhs[2, :-1, 0] = g[:-1]
    sol = np.linalg.solve(systems, rhs)[:, :, 0]
    weights = sol[0] * power
    t_all = complex(weights @ hv)
    t_outer, t_inner = (sol[1:, :-1] @ mom[:-1]).tolist()
    return t_all, float(max(abs(t_all - t_outer), abs(t_all - t_inner)) + np.abs(weights) @ noise)


def gamma_integral_check(alpha: complex, s: complex, tol: float = 1e-9) -> IntegralResult:
    """The oracle's own calibration: with a trivial integrand factor the
    transform must equal Gamma(alpha) s^(-alpha)."""
    trivial = HyperSeriesSpec([], [], 1.0)
    return laplace_numeric(alpha, s, 0.0, trivial, tol=tol)
