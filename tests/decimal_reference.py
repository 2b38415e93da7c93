"""A 50-digit reference in the standard library's ``decimal``.

Every float input is taken exactly (``Decimal(float)`` is exact) and every
formula is evaluated in 50 significant digits, so the reference resolves what
double precision rounds away: populations within e^-700 of 1, differences of
nearly equal populations, and gaps whose sign turns on the last bits.  The
two-qubit machine is taken exactly resonant, E_B = E + E_C, as
``MachineSpec.two_qubit`` describes it before E_B is rounded.  Relative
entropies and ladder gaps are written in excited populations, so that a
cold qubit's e^-700 is not lost against 1.
"""

from __future__ import annotations

import decimal
import functools
import math
from decimal import Decimal
from fractions import Fraction

CONTEXT = decimal.Context(prec=50, Emin=-999999, Emax=999999)
HALF = Decimal("0.5")


def _in_context(function):
    # Every operator inside runs at 50 digits, whatever the caller's context,
    # or at more where a reference function raised them for its callees.
    @functools.wraps(function)
    def wrapped(*args, **kwargs):
        context = CONTEXT.copy()
        context.prec = max(CONTEXT.prec, decimal.getcontext().prec)
        with decimal.localcontext(context):
            return function(*args, **kwargs)

    return wrapped


@_in_context
def exp(x: Decimal) -> Decimal:
    return Decimal(x).exp()


@_in_context
def ln(x: Decimal) -> Decimal:
    return Decimal(x).ln()


@_in_context
def excited_population(gap: float | Decimal, temp: float | Decimal) -> Decimal:
    """q/(1 + q) with q = exp(-gap/temp); ``temp`` may be ``math.inf``."""
    q = exp(-Decimal(gap) / Decimal(temp))
    return q / (1 + q)


@_in_context
def log1p(x: Decimal) -> Decimal:
    """ln(1 + x), by its series while 1 + x would round x away."""
    if abs(x) >= Decimal("1e-10"):
        return (1 + x).ln()
    total, power, k = Decimal(0), x, 1
    while power:
        total += power / k
        power, k = -power * x, k + 1
        if abs(power) < abs(total) * Decimal("1e-55"):
            break
    return total


@_in_context
def _softplus_integral(x_a: Decimal, x_b: Decimal) -> Decimal:
    """The integral of the excited population 1/(1 + e^x) from x_a to x_b."""
    return log1p(exp(-x_a)) - log1p(exp(-x_b))


@_in_context
def relative_entropy(gap: float, temp: float, ref_temp: float) -> Decimal:
    """D(γ(temp) ‖ γ(ref_temp)) = ∫ s from x_b to x_a, less (x_a - x_b) s(x_a).

    x_a = gap/temp, x_b = gap/ref_temp; either temperature may be ``math.inf``.
    The two terms cancel to about |δ| of their size, δ = x_a - x_b, so
    they are taken with those digits on top of the 50.
    """
    delta = Decimal(gap) / Decimal(temp) - Decimal(gap) / Decimal(ref_temp)
    extra = max(0, -delta.adjusted()) + 1 if delta else 0
    with decimal.localcontext() as context:
        context.prec += extra
        x_a = Decimal(gap) / Decimal(temp)
        x_b = Decimal(gap) / Decimal(ref_temp)
        return _softplus_integral(x_b, x_a) - (x_a - x_b) * excited_population(x_a, 1)


def _odd_derivatives(count: int) -> list[list[int]]:
    """Q_1..Q_count, low order first: s^(2k-1) = -Q_k(s(1 - s)) for s = 1/(1 + e^x)."""
    polys = [[0, 1]]
    while len(polys) < count:
        q = polys[-1]
        d1 = [j * c for j, c in enumerate(q)][1:]
        d2 = [j * c for j, c in enumerate(d1)][1:]
        nxt = [0] * (len(q) + 1)
        for j, c in enumerate(d2):  # Q'' u^2 (1 - 4u)
            nxt[j + 2] += c
            nxt[j + 3] -= 4 * c
        for j, c in enumerate(d1):  # Q' (u - 6u^2)
            nxt[j + 1] += c
            nxt[j + 2] -= 6 * c
        polys.append(nxt)
    return polys


def bernoulli_over_factorial(count: int) -> list[Fraction]:
    """B_2k/(2k)! for k = 1..count, exactly."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return [b[2 * k] / math.factorial(2 * k) for k in range(1, count + 1)]


# Terms of the reference's Euler-Maclaurin series: its h stays below 0.05.
_EM_TERMS = 24
ODD_DERIVATIVES = _odd_derivatives(_EM_TERMS)
_EM_CONSTANTS = [CONTEXT.divide(b.numerator, b.denominator) for b in bernoulli_over_factorial(_EM_TERMS)]
DIRECT_SUM_LIMIT = 1 << 14


@_in_context
def ladder_excess(e: float, t_cold: float, t_room: float, n: int, *, series: bool | None = None) -> Decimal:
    """h·Σ_{i<n} s(x_R + i h) - ∫ s over [x_R, x_C], h = (x_C - x_R)/n.

    T_R times this is the coherent ladder's gap.  The sum is taken term by
    term (s_i from q_i = e^-x_i, q_i+1 = q_i e^-h) up to ``DIRECT_SUM_LIMIT``
    terms, and as its Euler-Maclaurin series, to 24 terms at h < 0.05,
    beyond; ``series`` forces one route.
    """
    x_r = Decimal(e) / Decimal(t_room)
    x_c = Decimal(e) / Decimal(t_cold)
    h = (x_c - x_r) / n
    integral = _softplus_integral(x_r, x_c)
    if series is None:
        series = n > DIRECT_SUM_LIMIT
    if not series:
        q, ratio, total = exp(-x_r), exp(-h), Decimal(0)
        for _ in range(n):
            total += q / (1 + q)
            q *= ratio
        return h * total - integral
    if not h < Decimal("0.05"):
        raise ValueError(f"the reference's series needs h < 0.05, got {h}")
    s_r, s_c = excited_population(x_r, 1), excited_population(x_c, 1)
    u_r, u_c = s_r * (1 - s_r), s_c * (1 - s_c)
    total = h / 2 * (s_r - s_c)
    for constant, q in zip(_EM_CONSTANTS, ODD_DERIVATIVES):
        at_r = at_c = Decimal(0)
        for c in reversed(q):
            at_r, at_c = at_r * u_r + c, at_c * u_c + c
        total += constant * h ** (2 * len(q) - 2) * (at_r - at_c)
    return total


@_in_context
def ladder_totals(e: float, t_cold: float, t_room: float, n: int) -> tuple[Decimal, Decimal]:
    """(gap, df_target) of the n-stage coherent ladder: T_R times the excess and D."""
    t_r = Decimal(t_room)
    return t_r * ladder_excess(e, t_cold, t_room, n), t_r * relative_entropy(e, t_cold, t_room)


@functools.lru_cache(maxsize=None)
def _tanh_coefficients(count: int) -> tuple[Decimal, ...]:
    """(4^n - 1) B_2n/(2n)!/(2n + 1) for n = 1..count, at 60 digits."""
    context = decimal.Context(prec=60, Emin=-999999, Emax=999999)
    return tuple(
        context.divide((4**n - 1) * b.numerator, b.denominator * (2 * n + 1))
        for n, b in enumerate(bernoulli_over_factorial(count), start=1)
    )


@_in_context
def _softplus_moment(y: Decimal) -> Decimal:
    """-y ln(1 + e^-y) + Li2(-e^-y), whose derivative is y s(y); 0 at y = inf."""
    q = exp(-y)
    dilog, power, k = Decimal(0), -q, 1
    while abs(power) > Decimal(10) ** -(decimal.getcontext().prec + 5):
        dilog += power / (k * k)
        k, power = k + 1, -power * q
    return dilog - y * log1p(q)


@_in_context
def excited_moment(y: float | Decimal) -> Decimal:
    """J(y), the integral of x s(x) over [0, y]; J(inf) = π²/12.

    Its Taylor series, y²/4 - Σ (4^n - 1) B_2n/(2n)! y^(2n+1)/(2n + 1),
    up to y = 1 (ratio (y/π)² <= 0.11), and J(1) plus the softplus moment's
    change from 1 beyond.
    """
    y = Decimal(y)
    if y > 1:
        return excited_moment(1) + _softplus_moment(y) - _softplus_moment(Decimal(1))
    y2 = y * y
    total, power = y2 / 4, y * y2
    for coefficient in _tanh_coefficients(64):
        term = coefficient * power
        total -= term
        if abs(term) <= abs(total) * Decimal(10) ** -(decimal.getcontext().prec + 5):
            break
        power *= y2
    return total


@_in_context
def _excited_energy_sum(spacing: Decimal, n: int, temp: Decimal) -> Decimal:
    """Σ e_i s(e_i/temp) over e_i = (i/n) spacing, i = 1..n.

    A direct sum up to ``DIRECT_SUM_LIMIT`` terms, and on to where the
    terms fall below the working precision once past the peak of y s(y)
    at y ≈ 1.28; beyond, its Euler-Maclaurin series to 24 terms at step
    η = spacing/(n temp) < 0.05.
    """
    if temp.is_infinite():
        return spacing * (n + 1) / 4
    y = spacing / temp
    eta = y / n
    if n <= DIRECT_SUM_LIMIT or eta >= Decimal("0.05"):
        negligible = Decimal(10) ** -(decimal.getcontext().prec + 10)
        ratio = exp(-eta)
        q, total = ratio, Decimal(0)
        for i in range(1, n + 1):
            term = i * spacing / n * (q / (1 + q))
            total += term
            if i * eta > 2 and term <= total * negligible:
                break
            q *= ratio
        return total
    s = excited_population(y, 1)
    u, tanh = s * (1 - s), 1 - 2 * s
    derivatives = s - y * u - HALF  # φ'(Y) - φ'(0) for φ(y) = y s(y)
    total = _EM_CONSTANTS[0] * derivatives
    for k in range(2, _EM_TERMS + 1):
        odd = ODD_DERIVATIVES[k - 1]
        even = [j * c for j, c in enumerate(ODD_DERIVATIVES[k - 2])][1:]
        at_odd = sum(c * u**j for j, c in enumerate(odd))
        at_even = sum(c * u**j for j, c in enumerate(even))
        # φ^(2k-1) = y s^(2k-1) + (2k - 1) s^(2k-2), both 0 at y = 0.
        derivative = -y * at_odd + (2 * k - 1) * tanh * u * at_even
        total += _EM_CONSTANTS[k - 1] * eta ** (2 * k - 2) * derivative
    return spacing * (n * excited_moment(y) / (y * y) + s / 2 + total / n)


@_in_context
def real_qubit_preheat(spacing: float, n: int, t_room: float, t_hot: float) -> Decimal:
    """Σ e_i (s(e_i/T_H) - s(e_i/T_R)) over e_i = (i/n) spacing, i = 1..n.

    The heat that brings the incoherent ladder's N hot-side qubits from
    T_R to T_H.  ``spacing`` is taken as the float it is, so the reference
    checks the sum alone.  The two excited-energy sums cancel to about
    min(1, spacing/T_R) (T_H - T_R)/T_H of their size, so they are taken
    with those digits on top of the 50.
    """
    spacing, t_room, t_hot = Decimal(spacing), Decimal(t_room), Decimal(t_hot)
    if not spacing:
        return Decimal(0)
    share = 1 if t_hot.is_infinite() else (t_hot - t_room) / t_hot
    scale = min(Decimal(1), spacing / t_room) * share
    with decimal.localcontext() as context:
        context.prec += max(0, -scale.adjusted()) + 5
        return _excited_energy_sum(spacing, n, t_hot) - _excited_energy_sum(spacing, n, t_room)


@_in_context
def embedded_ladder_preheat(e_g: float, spacing: float, n: int, t_room: float, t_hot: float) -> Decimal:
    """U(T_H) - U(T_R) of a ground level at 0 below levels e_g + (i/n) spacing, i = 0..n.

    U(T) is the mean energy, Σ E w/Σ w with w = e^(-E/T).  The two means
    agree to about min(1, g/T_R) (T_H - T_R)/(T_H (n + 2)) of their size,
    with g the smallest level above the ground, so they are taken with
    those digits and 10 more on top of the 50.
    """
    e_g, spacing, t_room, t_hot = Decimal(e_g), Decimal(spacing), Decimal(t_room), Decimal(t_hot)
    levels = [e_g + i * spacing / n for i in range(n + 1)]
    gaps = [level for level in (e_g, spacing / n) if level]
    if not gaps:
        return Decimal(0)
    scale = min(Decimal(1), min(gaps) / t_room) * (t_hot - t_room) / t_hot / (n + 2)
    with decimal.localcontext() as context:
        context.prec += max(0, -scale.adjusted()) + 10

        def mean_energy(temp: Decimal) -> Decimal:
            weights = [exp(-level / temp) for level in levels]
            return sum(level * w for level, w in zip(levels, weights)) / (1 + sum(weights))

        return mean_energy(t_hot) - mean_energy(t_room)


class Machine:
    """Populations and swap phases of the exactly resonant two-qubit machine."""

    @_in_context
    def __init__(self, e: float, e_c: float, t_room: float) -> None:
        self.e, self.e_c, self.t_room = Decimal(e), Decimal(e_c), Decimal(t_room)
        self.s = excited_population(self.e, self.t_room)
        self.s_b = excited_population(self.e + self.e_c, self.t_room)
        self.s_c = excited_population(self.e_c, self.t_room)
        # (span of the target's excited population, gradient) per phase.
        phases = [(self.s_c, self.e_c - self.e)] if self.e_c > self.e else []
        phases.append((self.s_b, self.e_c))
        self.spans, s_now = [], self.s
        for s_end, gradient in phases:
            self.spans.append((s_now - s_end, gradient))
            s_now = s_end

    @_in_context
    def coherent_full_cost(self) -> Decimal:
        return sum(span * gradient for span, gradient in self.spans)

    @_in_context
    def incoherent_end(self) -> Decimal:
        """W(1/2) = E_C (1/2 - s_C), the incoherent cost at t_hot = inf."""
        return self.e_c * (HALF - self.s_c)

    @_in_context
    def coherent_drop(self, delta_f: Decimal) -> Decimal:
        """How far the coherent frontier lowers s at budget ``delta_f``."""
        drop, left = Decimal(0), delta_f
        for span, gradient in self.spans:
            if left <= span * gradient:
                return drop + left / gradient
            drop, left = drop + span, left - span * gradient
        return drop

    @_in_context
    def incoherent_work(self, u: float | Decimal) -> Decimal:
        """W(s_x) = (s_x - s_C)(E_C - T_R ln((1 - s_x)/s_x)) at s_x = s_C + u."""
        s_x = self.s_c + Decimal(u)
        return Decimal(u) * (self.e_c - self.t_room * ln((1 - s_x) / s_x))

    @_in_context
    def gap_sign(self, delta_f: float | Decimal) -> int:
        """Sign of T_inc(f) - T_coh(f) at a budget f > 0.

        C's hot excited population that brings the incoherent swap to the
        coherent population solves the swap's linear law exactly; the
        incoherent frontier is hotter when it needs more than f to get there,
        or cannot get there at all (s_x >= 1/2).
        """
        f = Decimal(delta_f)
        s, s_b = self.s, self.s_b
        r, r_b = 1 - s, 1 - s_b
        s_x = (self.coherent_drop(f) + r * s_b) / (s * r_b + r * s_b)
        if s_x >= HALF:
            return 1
        if s_x <= self.s_c:
            return -1
        need = self.incoherent_work(s_x - self.s_c)
        return (need > f) - (need < f)


def sign_changes(signs: list[int]) -> tuple[int, list[int]]:
    """The crossing's count over probe signs, and the index of each zero's left probe."""
    zeros = [
        k
        for k, (lo, hi) in enumerate(zip(signs, signs[1:]))
        if lo == 0 or hi == -lo
    ]
    return (1 + len(zeros) if zeros else 1), zeros


@_in_context
def zero_between(machine: Machine, lo: float, hi: float) -> Decimal:
    """The gap's zero in [lo, hi], whose ends have opposite signs, to ~1e-50 relative."""
    a, b = Decimal(lo), Decimal(hi)
    sign_a = machine.gap_sign(a)
    for _ in range(200):
        mid = (a + b) / 2
        if mid in (a, b):
            break
        if machine.gap_sign(mid) == sign_a:
            a = mid
        else:
            b = mid
    return (a + b) / 2
