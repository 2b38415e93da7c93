import ast
from pathlib import Path

import pytest

import qfridge
from qfridge import cli

SOURCES = {
    path.stem: ast.parse(path.read_text())
    for path in sorted(Path(qfridge.__file__).parent.glob("*.py"))
}

# Public names that no source module references, and why each stays.
KEEP = {
    "majorizes": "independent reference the solver tests check the T-transforms against",
    "simulate_one_qubit_partial_swap": "independent dense reference for one_qubit_coherent",
    "degeneracy_classifier": "acceptance criterion 7",
    "degenerate_subspace_sweep": "acceptance criterion 7",
    "swap_update": "acceptance criterion 8",
    "optimal_sequence": "README figure recipe and the summary tie test",
    "autonomous_steady_state": "acceptance criterion 5",
    "single_cycle_coherent_cost": "acceptance criterion 4",
    "precooled_population": "the algorithmic-cooling tests price their expected cycles with it",
    "precool_mixing_for_population": "the optimal-sequence tests check its mixing against bisection",
    "binary_entropy": "the ladder tests' entropy-bookkeeping route to T_R·D, independent of it",
    "internal_resource": "exported in qfridge.__all__; the protocol tests price single points with it",
}

# Defaulted parameters that no source call sets, and why each stays.
KEEP_PARAMETERS = {
    "main.argv": "None reads sys.argv; the tests drive main in-process",
    "simulate_repeated_incoherent.r0": "dense reference for chained ladder stages",
    "simulate_algorithmic.r0": "dense reference for algorithmic cooling from r0",
}

# Public methods and properties that no source module reads, and why each stays.
KEEP_MEMBERS = {
    "VirtualQubit.t_v": "test_virtual's independent route to the asymptote laws",
    "SubspaceSweepReport.improvement": "acceptance criterion 7",
}

# (curve scenario, flag) pairs accepted though the scenario never reads the
# flag, and why each stays.
KEEP_FLAGS = {
    ("ladder-coh", "t_h"): "the recorded benchmark ladder-coh op passes it",
    ("ladder-coh", "e_c"): "the recorded benchmark op passes it; the ladder builds its own qubits",
    ("ladder-inc", "e_c"): "the recorded benchmark op passes it; the ladder builds its own qubits",
}

# Two valid values per scenario-specific curve flag (E = T_R = 1, E_C = 0.4).
CURVE_FLAG_VALUES = {
    "t_h": ("3", "10"),
    "nu": ("0.3", "0.6"),
    "r0": ("0.8", "0.9"),
    "t_c": ("0.3", "0.5"),
    "e_c": ("0.4", "0.7"),
}


def _public_definitions() -> dict[str, str]:
    return {
        node.name: module
        for module, tree in SOURCES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _referenced_names() -> set[str]:
    # Loads, attribute reads and imports outside the package's re-export
    # list; comments and docstrings are not in the tree.
    names: set[str] = set()
    for module, tree in SOURCES.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_has_a_caller_in_the_package():
    referenced = _referenced_names()
    unreached = {
        f"{module}.{name}"
        for name, module in _public_definitions().items()
        if name not in referenced and name not in KEEP
    }
    assert unreached == set()


def test_kept_names_exist_and_still_lack_a_caller():
    # A kept name that gains a caller, or is deleted, leaves KEEP.
    referenced = _referenced_names()
    assert set(KEEP) <= set(_public_definitions())
    assert not set(KEEP) & referenced


def _unset_parameters() -> set[str]:
    # "function.parameter" for every defaulted parameter that no call in the
    # package passes, by keyword or by position; calls match by name.
    calls = [
        node for tree in SOURCES.values() for node in ast.walk(tree) if isinstance(node, ast.Call)
    ]
    unset = set()
    for tree in SOURCES.values():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = fn.args.posonlyargs + fn.args.args
            bound = 1 if params and params[0].arg in ("self", "cls") else 0
            first_default = len(params) - len(fn.args.defaults)
            defaulted = [(i - bound, p.arg) for i, p in enumerate(params) if i >= first_default]
            defaulted += [
                (None, p.arg)
                for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None
            ]
            for position, name in defaulted:
                if not any(
                    getattr(call.func, "id", getattr(call.func, "attr", None)) == fn.name
                    and (
                        any(k.arg == name for k in call.keywords)
                        or (position is not None and len(call.args) > position)
                    )
                    for call in calls
                ):
                    unset.add(f"{fn.name}.{name}")
    return unset


def _unread_members() -> set[str]:
    read = {
        node.attr for tree in SOURCES.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    return {
        f"{cls.name}.{member.name}"
        for tree in SOURCES.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in read
    }


def test_every_defaulted_parameter_is_set_by_a_caller_in_the_package():
    assert _unset_parameters() - set(KEEP_PARAMETERS) == set()


def test_every_public_member_is_read_in_the_package():
    assert _unread_members() - set(KEEP_MEMBERS) == set()


def test_kept_parameters_and_members_still_lack_a_caller():
    # A kept entry that gains a caller, or is deleted, leaves its dict.
    assert set(KEEP_PARAMETERS) <= _unset_parameters()
    assert set(KEEP_MEMBERS) <= _unread_members()


def _curve(capsys, scenario: str, **flags: str) -> tuple[int, str, str]:
    # Every flag the scenario reads is set, so only the one under test varies.
    values = {flag: CURVE_FLAG_VALUES[flag][0] for flag in cli.SCENARIOS[scenario]}
    values.update(flags)
    argv = ["curve", scenario, "--e-c", "0.4", "--t-r", "1", "--grid", "4", "--full-precision"]
    for flag, value in values.items():
        argv += ["--" + flag.replace("_", "-"), value]
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _outputs_at_both_values(capsys, scenario: str, flag: str) -> list[str]:
    outputs = []
    for value in CURVE_FLAG_VALUES[flag]:
        code, out, err = _curve(capsys, scenario, **{flag: value})
        assert code == 0, err
        outputs.append(out)
    return outputs


@pytest.mark.parametrize(
    "scenario,flag",
    [
        (scenario, flag)
        for scenario in cli.SCENARIOS
        for flag in ("t_h", "nu", "r0", "t_c")
        if (scenario, flag) not in KEEP_FLAGS
    ],
)
def test_every_curve_flag_is_read_by_its_scenario_or_rejected(capsys, scenario, flag):
    if flag in cli.SCENARIOS[scenario]:
        first, second = _outputs_at_both_values(capsys, scenario, flag)
        assert first != second
    else:
        code, out, err = _curve(capsys, scenario, **{flag: CURVE_FLAG_VALUES[flag][0]})
        assert (code, out) == (2, "")
        assert f"curve {scenario} does not read --{flag.replace('_', '-')}" in err


@pytest.mark.parametrize("scenario,flag", list(KEEP_FLAGS))
def test_kept_curve_flags_are_accepted_and_unread(capsys, scenario, flag):
    # A kept flag that gains a reader leaves KEEP_FLAGS.
    assert flag not in cli.SCENARIOS[scenario]
    first, second = _outputs_at_both_values(capsys, scenario, flag)
    assert first == second
