"""Command-line front end: curves, crossing reports, summaries, verification.

Subcommands: ``curve`` (CSV protocol sweeps), ``crossing`` (where the
incoherent and coherent single-cycle curves exchange dominance), ``summary``
(every boxed limit quantity as JSON), ``verify`` (the oracle suite; exit
status 1 on any failing check), ``ladder`` (second-law saturation data).

Machine parameters are taken from flags or from a plain key-value config file
(keys: E, E_C, T_R, T_H, N, seed); flags override the file.  ``verify`` reads
only seed, and ``FRIDGE_SEED`` overrides the default oracle seed.  ``curve``
rejects a scenario flag its scenario does not read (see ``SCENARIOS``), and
``ladder`` rejects ``--e-g`` without a hot bath.  Each call is parsed once,
by the parser of the subcommand it names first; the top-level parser only
prints the top-level help and usage errors.  Exit status:
0 success, 1 verification failure, 2 usage error, 141 when the reader
closes stdout early.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

from . import protocols
from .ladder import LadderSpec, coherent_ladder, incoherent_ladder, incoherent_twin
from .protocols import (  # both inversions are re-exported from here
    coherent_temperature_of_work,
    incoherent_temperature_of_work,
)
from .thermal import DomainError, INFINITE, InfeasibleTargetError, MachineSpec

CSV_HEADER = "control,delta_f,temperature,r"

# Which of the flags --t-h, --nu, --r0 and --t-c each curve scenario reads;
# main rejects the others before any work.  inc-single and internal-inc sweep
# their own t_hot, so they read no --t-h.
SCENARIOS = {
    "inc-single": (),
    "coh-single": (),
    "inc-repeat": ("t_h",),
    "coh-repeat": (),
    "algo": ("nu", "r0"),
    "internal-inc": (),
    "internal-coh": (),
    "ladder-coh": ("t_c",),
    "ladder-inc": ("t_h", "t_c"),
}
# Accepted though unread, because the recorded benchmark ops pass it (as
# both ladder scenarios pass --e-c, which they accept and do not read).
_UNREAD_BUT_ACCEPTED = {("ladder-coh", "t_h")}
_LADDER_SCENARIOS = ("ladder-coh", "ladder-inc")


@dataclass(frozen=True)
class CurvePoint:
    """One sampled point of a cooling curve, ordered by its control value."""

    control: float
    delta_f: float
    temperature: float
    r: float


@dataclass(frozen=True)
class CrossingReport:
    """Where the incoherent curve stops beating the coherent one."""

    delta_f_crit: float | None
    t_crit: float | None
    delta_f_crit_prime: float | None
    sign_changes: int


# ---------------------------------------------------------------------------
# Curve generation.
# ---------------------------------------------------------------------------


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace(start, stop, num), point for point, as Python floats."""
    if num == 1:
        return [start]
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _logspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.logspace(start, stop, num), each power by math.pow (within 1 ulp of numpy's)."""
    return [math.pow(10.0, x) for x in _linspace(start, stop, num)]


# The crossing's probe budgets as shares of the coherent full cost f_max.
_PROBE_SHARES = _logspace(-9.0, -0.0001, 160) + [1.0]


def _hot_bath_grid(t_room: float, grid: int) -> list[float]:
    # Log grid in (t_hot - t_room)/t_room: the curve saturates slowly, plus
    # the exact infinite endpoint appended.
    if grid <= 1:
        return [INFINITE]
    return [t_room * (1.0 + u) for u in _logspace(-3.0, 3.0, grid - 1)] + [INFINITE]


def curve_points(
    scenario: str,
    spec: MachineSpec,
    grid: int,
    nu: float | None = None,
    r0: float | None = None,
    t_cold: float | None = None,
) -> list[CurvePoint]:
    """Sample one protocol's cooling curve on its natural control grid.

    ``nu`` (default 1, full precooling) and ``r0`` are read by ``algo`` only,
    ``t_cold`` by the ladder scenarios only, which build their own machine
    qubits and read only the target gap and the temperatures of ``spec``.
    """
    if grid < 1:
        raise DomainError(f"grid must be >= 1, got {grid}")
    points: list[CurvePoint] = []
    if scenario == "inc-single":
        for t_hot in _hot_bath_grid(spec.t_room, grid):
            out = protocols.two_qubit_incoherent_single(replace(spec, t_hot=t_hot))
            points.append(CurvePoint(t_hot, out.work_cost, out.t_final, out.r_final))
    elif scenario == "coh-single":
        for mu in _linspace(0.0, 1.0, grid):
            r_target = protocols.coherent_single_population(spec, mu)
            out = protocols.two_qubit_coherent_single(spec, r_target)
            points.append(CurvePoint(mu, out.work_cost, out.t_final, out.r_final))
    elif scenario in ("inc-repeat", "coh-repeat", "algo"):
        run = {
            "inc-repeat": lambda n: protocols.repeated_incoherent(spec, n),
            "coh-repeat": lambda n: protocols.repeated_coherent(spec, n),
            "algo": lambda n: protocols.algorithmic_cooling(
                spec, n, nu=1.0 if nu is None else nu, r0=r0
            ),
        }[scenario]
        # Rows n = 0..grid-2 are the points of one n = grid-2 trajectory.
        for p in run(float(grid - 2)).trajectory if grid > 1 else ():
            t = protocols.point_temperature(spec, p)
            points.append(CurvePoint(float(p.step), p.delta_f, t, p.r))
        out = run(INFINITE)
        points.append(CurvePoint(INFINITE, out.work_cost, out.t_final, out.r_final))
    elif scenario == "internal-inc":
        for t_hot in _hot_bath_grid(spec.t_room, grid):
            out = protocols.internal_resource(spec, "incoherent", t_hot)
            points.append(CurvePoint(t_hot, out.work_cost, out.t_final, out.r_final))
    elif scenario == "internal-coh":
        for mu in _linspace(0.0, 1.0, grid):
            out = protocols.internal_resource(spec, "coherent", mu)
            points.append(CurvePoint(mu, out.work_cost, out.t_final, out.r_final))
    elif scenario in _LADDER_SCENARIOS:
        if t_cold is None:
            raise DomainError(f"scenario {scenario} needs t_cold")
        for n in range(1, grid + 1):
            lspec = LadderSpec(
                n, t_cold, spec.t_room, t_hot=spec.t_hot, target_gap=spec.e
            )
            out = coherent_ladder(lspec) if scenario == "ladder-coh" else incoherent_ladder(lspec)
            stage = out.per_step[-1]
            points.append(CurvePoint(float(n), out.w_total, stage.temperature, stage.r))
    else:
        raise DomainError(f"unknown scenario {scenario!r}; choose from {tuple(SCENARIOS)}")
    return points


# ---------------------------------------------------------------------------
# Crossing point.
# ---------------------------------------------------------------------------


def crossing_report(spec: MachineSpec, tolerance: float) -> CrossingReport:
    """Locate every sign change of T_inc(dF) - T_coh(dF) on the common domain.

    The shared origin (both curves start at zero cost, temperature t_room)
    always counts as one sign change when the domain is non-empty; interior
    zeros are bracketed on a 161-point log grid of work budgets and refined
    by bisection in the budget until the bracket is at most ``tolerance``
    wide; ``tolerance`` (the CLI's ``--tolerance``) is that outer bracket
    width and nothing else.  A tolerance below the spacing of the doubles
    near a zero stops the bisection at two adjacent doubles instead.  Every
    probe and bisection step takes the gap's sign from one forward
    evaluation (:func:`qfridge.protocols.frontier_gap_sign`): T_inc(f) >
    T_coh(f) exactly when the incoherent frontier's cost
    W = (s_x - s_C)(E_C - T_R ln((1 - s_x)/s_x)) at the C population that
    reaches the coherent population at f exceeds f, since W is monotone in
    C's population and the swap is linear in it.  No frontier is inverted
    and only signs are compared, never their products, which underflow on a
    machine in tiny units.  ``t_crit`` alone inverts both frontiers, once, at
    the first zero.  ``delta_f_crit`` is the first interior zero and
    ``delta_f_crit_prime`` the last (the two coincide when the crossing is
    unique, which is not assumed).  A coherent full cost at or beyond the
    incoherent curve's end W(1/2) raises :class:`InfeasibleTargetError`
    naming the machine.
    """
    if not tolerance > 0.0:
        raise DomainError(f"tolerance must be > 0, got {tolerance}")
    f_max, sign = protocols.frontier_gap_sign(spec)
    if f_max <= 0.0:
        return CrossingReport(None, None, None, 0)
    probes = [f_max * u for u in _PROBE_SHARES]
    try:
        signs = [sign(f) for f in probes]
    except InfeasibleTargetError as exc:
        # Only budgets at or beyond the incoherent curve's end W(1/2), its
        # cost at t_hot = inf, have no sign; the error names W(1/2).
        raise InfeasibleTargetError(
            f"coherent budget f_max={f_max!r} reaches past the incoherent curve on the "
            f"machine E_C={spec.e_c!r}, T_R={spec.t_room!r}: {exc}"
        ) from None
    zeros: list[float] = []
    for (f_lo, g_lo), (f_hi, g_hi) in zip(zip(probes, signs), zip(probes[1:], signs[1:])):
        if g_lo == 0:
            zeros.append(f_lo)
            continue
        if g_hi != -g_lo:
            continue
        lo, hi = f_lo, f_hi
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if sign(mid) == g_lo:
                lo = mid
            else:
                hi = mid
        zeros.append(0.5 * (lo + hi))
    if not zeros:
        return CrossingReport(None, None, None, 1)
    t_inc = protocols.incoherent_temperature_of_work(spec, zeros[0])
    t_crit = 0.5 * (t_inc + protocols.coherent_temperature_of_work(spec, zeros[0]))
    return CrossingReport(zeros[0], t_crit, zeros[-1], 1 + len(zeros))


# ---------------------------------------------------------------------------
# Argument handling.
# ---------------------------------------------------------------------------

_CONFIG_KEYS = frozenset({"e", "e_c", "t_r", "t_h", "n", "seed"})


def _parse_value(text: str) -> float:
    text = text.strip().lower()
    if text in ("inf", "infinite", "infinity"):
        return INFINITE
    return float(text)


def _parse_count(text: str) -> int | float:
    # An integer literal keeps every digit (a float drops them past 2**53);
    # any other text is left for _integer to accept or reject by name.
    try:
        return int(text)
    except ValueError:
        return _parse_value(text)


def load_config(path: str) -> dict:
    """Plain key-value config: one `key = value` (or `key value`) per line."""
    values: dict[str, float | int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            else:
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise DomainError(f"{path}:{lineno}: cannot parse {raw!r}")
                key, value = parts
            key = key.strip().lower()
            if key not in _CONFIG_KEYS:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_count(value) if key in ("n", "seed") else _parse_value(value)
    return values


def _machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key-value config file (flags override it)")
    p.add_argument("--e", type=_parse_value, default=None, help="target gap (default 1)")
    p.add_argument("--e-c", type=_parse_value, default=None, help="machine qubit C gap")
    p.add_argument("--t-r", type=_parse_value, default=None, help="room temperature (default 1)")
    p.add_argument("--t-h", type=_parse_value, default=None, help="hot bath temperature ('inf' allowed)")


def _curve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", choices=SCENARIOS)
    _machine_args(p)
    p.add_argument("--grid", type=int, default=100, help="number of control samples")
    p.add_argument("--nu", type=float, default=None, help="precooling mix for the algo scenario (default 1)")
    p.add_argument("--r0", type=float, default=None, help="starting population for the algo scenario")
    p.add_argument("--t-c", type=_parse_value, default=None, help="cold target temperature (ladder scenarios)")
    p.add_argument("--output", "-o", default="-", help="output path ('-' for stdout)")
    p.add_argument(
        "--full-precision",
        action="store_true",
        help="write full float precision instead of 6 significant digits",
    )


def _crossing_args(p: argparse.ArgumentParser) -> None:
    _machine_args(p)
    p.add_argument("--tolerance", type=float, default=1e-10)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key-value config file (only its seed key is read)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=10_000, help="Haar samples (0 skips the sweep)")
    p.add_argument("--machines", type=int, default=60)
    p.add_argument("--instances", type=int, default=60)
    # Checked against verify.MUTATIONS by run_verification, so building the
    # parser does not load the numpy-backed oracle.
    p.add_argument(
        "--mutate",
        default=None,
        metavar="NAME",
        help=(
            "corrupt one formula on purpose (falsifiability smoke test); "
            "an unknown NAME lists the valid ones"
        ),
    )


def _ladder_args(p: argparse.ArgumentParser) -> None:
    _machine_args(p)
    p.add_argument("--n", type=int, default=None, help="number of ladder stages")
    p.add_argument("--t-c", type=_parse_value, default=None, help="cold target temperature")
    p.add_argument("--e-g", type=_parse_value, default=None, help="embedded-ladder ground offset")


# Each subcommand's help line and the function that adds its arguments, in
# the order the top-level help lists them.
_COMMANDS = {
    "curve": ("write a cooling curve as CSV", _curve_args),
    "crossing": ("locate the coherent/incoherent crossing", _crossing_args),
    "summary": ("emit every boxed limit quantity as JSON", _machine_args),
    "verify": ("run the oracle verification suite", _verify_args),
    "ladder": ("second-law saturation data for one N", _ladder_args),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # The full parser, built on first use and shared by every later call;
    # parse_args leaves the parser unchanged and returns a fresh namespace.
    parser = argparse.ArgumentParser(
        prog="qfridge",
        description="Cooling limits and work costs of minimal quantum refrigerators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    # Built as the full parser builds its ``name`` subparser, prog included.
    parser = argparse.ArgumentParser(prog=f"qfridge {name}")
    _COMMANDS[name][1](parser)
    return parser


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """The namespace ``_build_parser().parse_args(argv)`` gives, parsed once.

    A call that names its subcommand first is parsed by that subcommand's
    parser alone.  The full parser runs only to print the top-level help and
    usage errors: when no subcommand comes first, or when the subcommand
    leaves arguments unrecognized.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args, unrecognized = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not unrecognized:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def _resolved(args: argparse.Namespace, key: str, config: dict, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return config.get(key, default)


def _machine_values(args: argparse.Namespace, config: dict) -> tuple:
    # (e, e_c, t_r, t_h): the flag, else the config key, else E = T_R = 1.
    defaults = {"e": 1.0, "e_c": None, "t_r": 1.0, "t_h": None}
    return tuple(_resolved(args, key, config, value) for key, value in defaults.items())


def _machine_from(args: argparse.Namespace, config: dict) -> MachineSpec:
    e, e_c, t_r, t_h = _machine_values(args, config)
    if e_c is None:
        raise DomainError("machine qubit gap E_C is required (--e-c or config)")
    return MachineSpec.two_qubit(e_c, t_r, t_h, e=e)


def _integer(name: str, value: float | int | str) -> int:
    # Non-literal config counts are floats: reject those int() would truncate
    # or overflow on.
    if isinstance(value, float) and not value.is_integer():
        raise DomainError(f"{name} must be an integer, got {value}")
    return int(value)


def _default_seed(args: argparse.Namespace, config: dict) -> int:
    from . import oracle

    # The flag, else the config key, else FRIDGE_SEED, else the fixed default.
    sources = (
        ("--seed", args.seed),
        (f"the seed key of {getattr(args, 'config', None)}", config.get("seed")),
        ("FRIDGE_SEED", os.environ.get("FRIDGE_SEED")),
    )
    for source, value in sources:
        if value is None:
            continue
        try:
            seed = _integer("seed", value)
        except ValueError:
            seed = None
        if seed is None or seed < 0:
            raise DomainError(f"seed must be an integer >= 0, got {value!r} from {source}")
        return seed
    return oracle.DEFAULT_SEED


def _format_value(value: float, full: bool) -> str:
    if full:
        return repr(float(value))
    return f"{value:.6g}"


def _write_curve(points: Iterable[CurvePoint], handle, full: bool) -> None:
    handle.write(CSV_HEADER + "\n")
    for p in points:
        row = ",".join(
            _format_value(v, full) for v in (p.control, p.delta_f, p.temperature, p.r)
        )
        handle.write(row + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        if args.command == "curve":
            reads = SCENARIOS[args.scenario]
            for flag in ("t_h", "nu", "r0", "t_c"):
                accepted = flag in reads or (args.scenario, flag) in _UNREAD_BUT_ACCEPTED
                if getattr(args, flag) is not None and not accepted:
                    name = flag.replace("_", "-")
                    raise DomainError(f"curve {args.scenario} does not read --{name}")
        config = load_config(args.config) if getattr(args, "config", None) else {}
        if args.command == "curve":
            if args.scenario in _LADDER_SCENARIOS:
                # As the ladder subcommand: E, T_R and T_H only, no E_C.
                e, _, t_r, t_h = _machine_values(args, config)
                spec = MachineSpec.target_only(e, t_r, t_h)
            else:
                spec = _machine_from(args, config)
            points = curve_points(
                args.scenario,
                spec,
                args.grid,
                nu=args.nu,
                r0=args.r0,
                t_cold=args.t_c,
            )
            if args.output == "-":
                _write_curve(points, sys.stdout, args.full_precision)
                sys.stdout.flush()
            else:
                with open(args.output, "w", encoding="utf-8") as handle:
                    _write_curve(points, handle, args.full_precision)
            return 0
        code = 0
        if args.command == "crossing":
            payload = asdict(crossing_report(_machine_from(args, config), args.tolerance))
        elif args.command == "summary":
            payload = protocols.boxed_limits(_machine_from(args, config))
        elif args.command == "verify":
            from . import verify

            seed = _default_seed(args, config)
            report = verify.run_verification(
                seed,
                args.samples,
                machines=args.machines,
                instances=args.instances,
                mutate=args.mutate,
            )
            payload = report.to_dict()
            code = 0 if report.passed else 1
        else:  # ladder; argparse rejects any other command
            n = _resolved(args, "n", config, None)
            if n is None:
                raise DomainError("ladder needs --n (or config key N)")
            t_c = getattr(args, "t_c", None)
            if t_c is None:
                raise DomainError("ladder needs --t-c")
            e, _, t_r, t_h = _machine_values(args, config)
            if args.e_g is not None and t_h is None:
                # Only the incoherent twin, priced when T_H is given, reads it.
                raise DomainError("ladder does not read --e-g without --t-h")
            lspec = LadderSpec(
                _integer("N", n), t_c, t_r, t_hot=t_h, e_ground_offset=args.e_g, target_gap=e
            )
            coh = coherent_ladder(lspec)
            payload = {
                "n": lspec.n_steps,
                "coherent": {
                    "w_total": coh.w_total,
                    "df_target": coh.df_target,
                    "gap": coh.gap,
                },
            }
            if t_h is not None:
                inc = incoherent_twin(lspec, coh)
                payload["incoherent"] = {
                    "w_total": inc.w_total,
                    "df_target": inc.df_target,
                    "gap": inc.gap,
                    "q_init": inc.q_init,
                }
        # One write: json.dump writes chunk by chunk, each a syscall when
        # stdout is unbuffered.
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`): end quietly with 128 + SIGPIPE,
        # with stdout on devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DomainError, InfeasibleTargetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
