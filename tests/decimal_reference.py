"""A 50-digit reference in the standard library's ``decimal``.

Every float input is taken exactly (``Decimal(float)`` is exact) and every
formula is evaluated in 50 significant digits, so the reference resolves what
double precision rounds away: populations within e^-700 of 1, differences of
nearly equal populations, and gaps whose sign turns on the last bits.  The
two-qubit machine is taken exactly resonant, E_B = E + E_C, as
``MachineSpec.two_qubit`` describes it before E_B is rounded.
"""

from __future__ import annotations

import decimal
import functools
from decimal import Decimal

CONTEXT = decimal.Context(prec=50, Emin=-999999, Emax=999999)
HALF = Decimal("0.5")


def _in_context(function):
    # Every operator inside runs at 50 digits, whatever the caller's context.
    @functools.wraps(function)
    def wrapped(*args, **kwargs):
        with decimal.localcontext(CONTEXT):
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
