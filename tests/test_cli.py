"""Command-line interface: output of every subcommand and exit codes,
and the modules that importing the package and the CLI loads."""

import ast
import functools
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import digitkit
from digitkit import cli
from digitkit.cli import _LENGTH_CAP, _MARKOV_STEPS_CAP, main
from digitkit.experiments import (
    _DRAW_BITS_CAP,
    STAT_FIELDS,
    _exhaustive_sums,
    _width,
    complement_bit_probabilities,
)
from digitkit.recoding import RecodingScheme
from digitkit.transducer import (
    double_naf_transducer,
    stationary_distribution,
    transition_matrix,
    zero_output_probability,
)
from digitkit.verification import (
    _BOUND_CAPS,
    CHECKS,
    bound_names,
    check_complement_weight_gap,
)

VERIFY_FLAGS = {
    "--max-n": "max_n",
    "--max-length": "max_length",
    "--pairs": "random_pairs",
    "--instances": "instances",
}
# The flag of every check bound, the seed included.
BOUND_FLAGS = {**{bound: flag for flag, bound in VERIFY_FLAGS.items()}, "seed": "--seed"}
SLOPE_FLAGS = {"--length", "--samples", "--seed", "--workers"}
CLAIM_FLAGS = {"wllc-slope": SLOPE_FLAGS, "sun-slope": SLOPE_FLAGS, "bit-prob": {"--length"}}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_recode_joint_complement_form(capsys):
    code, out, _ = run_cli(
        capsys, "recode", "--scheme", "wllc", "--n", "13", "--n", "5"
    )
    assert code == 0
    assert "row 0: 100-1-1 (value 13, weight 3)" in out
    assert "row 1: 00101 (value 5, weight 2)" in out
    assert "weight1: 4" in out


def test_recode_naf_zero(capsys):
    code, out, _ = run_cli(capsys, "recode", "--scheme", "naf", "--n", "0")
    assert code == 0
    assert "row 0: (empty) (value 0, weight 0)" in out
    assert "joint weight: 0" in out


def test_recode_sjsf_columns(capsys):
    code, out, _ = run_cli(
        capsys, "recode", "--scheme", "sjsf", "--n", "3", "--n", "2"
    )
    assert code == 0
    assert "row 0: 11 (value 3, weight 2)" in out
    assert "row 1: 10 (value 2, weight 1)" in out
    assert "joint weight: 2" in out


def test_recode_errors_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "recode", "--scheme", "sjsf", "--n", "1", "--n", "2", "--n", "3"
    )
    assert code == 2
    assert "two exponents" in err
    code, _, err = run_cli(capsys, "recode", "--scheme", "naf", "--n", "-4")
    assert code == 2
    assert "non-negative" in err


def test_recode_length_is_capped_before_any_work(capsys, monkeypatch):
    assert _LENGTH_CAP == 1 << 16
    code, out, _ = run_cli(
        capsys, "recode", "--scheme", "binary", "--n", "5",
        "--length", str(_LENGTH_CAP),
    )
    assert code == 0
    assert f"columns: {_LENGTH_CAP}, joint weight: 2, weight1: 2" in out

    def never(*args, **kwargs):
        raise AssertionError(f"recoded {args} {kwargs}")

    monkeypatch.setattr(cli, "recode_joint", never)
    for length in (_LENGTH_CAP + 1, 10**8):
        code, out, err = run_cli(
            capsys, "recode", "--scheme", "binary", "--n", "5", "--length", str(length)
        )
        assert (code, out) == (2, "")
        assert err == f"error: length {length} exceeds its cap of {_LENGTH_CAP}\n"


def test_sampled_lengths_are_capped_before_any_work(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "stats", "--scheme", "binary", "--length", str(_LENGTH_CAP),
        "--samples", "1", "--dimension", "1",
    )
    assert code == 0
    assert f'"length": {_LENGTH_CAP}' in out

    def never(*args, **kwargs):
        raise AssertionError(f"sampled {args} {kwargs}")

    for name in ("run_stats", "exhaustive_stats", "cost_slope"):
        monkeypatch.setattr(cli, name, never)
    over = _LENGTH_CAP + 1
    half = _LENGTH_CAP // 2
    for argv, length, cap in (
        (("stats", "--scheme", "naf", "--length", "8", "--length", over), over, _LENGTH_CAP),
        (("stats", "--scheme", "naf", "--length", over, "--exhaustive"), over, _LENGTH_CAP),
        # A slope samples twice its length, so falsify caps it at half.
        (("falsify", "wllc-slope", "--length", half + 1), half + 1, half),
        (("falsify", "sun-slope", "--length", over), over, half),
    ):
        code, out, err = run_cli(capsys, *map(str, argv))
        assert (code, out) == (2, "")
        assert err == f"error: length {length} exceeds its cap of {cap}\n"


def test_sampled_vector_bits_are_capped_before_any_work(capsys, monkeypatch):
    # The widest vector at the longest length fills one draw block exactly.
    dimension = _DRAW_BITS_CAP // _LENGTH_CAP
    code, out, _ = run_cli(
        capsys, "stats", "--scheme", "binary", "--length", str(_LENGTH_CAP),
        "--dimension", str(dimension), "--samples", "1",
    )
    assert code == 0
    assert f'"dimension": {dimension}' in out

    def never(*args, **kwargs):
        raise AssertionError(f"sampled {args} {kwargs}")

    monkeypatch.setattr(cli, "run_stats", never)
    bits = (dimension + 1) * _LENGTH_CAP
    longest = ("--length", str(_LENGTH_CAP))
    for lengths in (longest, ("--length", "8", *longest)):
        code, out, err = run_cli(
            capsys, "stats", "--scheme", "naf", *lengths,
            "--dimension", str(dimension + 1),
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: dimension {dimension + 1} x length {_LENGTH_CAP} = {bits} "
            f"bits exceeds the {_DRAW_BITS_CAP} bits of one draw block\n"
        )


def test_multiexp_modp(capsys):
    code, out, _ = run_cli(
        capsys,
        "multiexp", "--group", "modp:101", "--base", "2", "--base", "3",
        "--n", "5", "--n", "3", "--scheme", "stacked-naf",
    )
    assert code == 0
    assert "result: 56" in out
    assert "squarings: 2" in out
    assert "multiplications: 1" in out
    assert "precomputation multiplications: 2" in out


def test_multiexp_scheme_independence(capsys):
    results = set()
    for scheme in ("binary", "naf", "stacked-naf", "sjsf", "wllc"):
        code, out, _ = run_cli(
            capsys,
            "multiexp", "--group", "modp:101", "--base", "2", "--base", "3",
            "--n", "5", "--n", "3", "--scheme", scheme,
        )
        assert code == 0
        results.add(out.splitlines()[0])
    assert results == {"result: 56"}


def test_multiexp_additive(capsys):
    code, out, _ = run_cli(
        capsys,
        "multiexp", "--group", "intadd", "--base", "1", "--base", "0",
        "--n", "13", "--n", "5", "--scheme", "wllc",
    )
    assert code == 0
    assert "result: 13" in out


def test_multiexp_errors_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "multiexp", "--group", "modp:100", "--base", "2", "--n", "5",
        "--scheme", "naf",
    )
    assert code == 2
    assert "prime" in err

    code, _, err = run_cli(
        capsys,
        "multiexp", "--group", "modp:101", "--base", "202", "--n", "5",
        "--scheme", "naf",
    )
    assert code == 2

    code, _, err = run_cli(
        capsys,
        "multiexp", "--group", "modp:101", "--base", "2", "--base", "3",
        "--n", "5", "--scheme", "naf",
    )
    assert code == 2
    assert "as many" in err

    code, _, err = run_cli(
        capsys,
        "multiexp", "--group", "gf:8", "--base", "2", "--n", "5",
        "--scheme", "naf",
    )
    assert code == 2
    assert "group spec" in err

    code, _, err = run_cli(
        capsys,
        "multiexp", "--group", "modp:abc", "--base", "2", "--n", "5",
        "--scheme", "naf",
    )
    assert code == 2
    assert err == "error: unknown group spec 'modp:abc'; use modp:<prime> or intadd\n"

    pairs = [arg for _ in range(9) for arg in ("--base", "2", "--n", "5")]
    code, out, err = run_cli(
        capsys, "multiexp", "--group", "modp:101", *pairs, "--scheme", "naf"
    )
    assert code == 2
    assert out == ""
    assert err == "error: dimension 9 exceeds its cap of 8\n"


def test_stats_json_lines(capsys):
    code, out, _ = run_cli(
        capsys,
        "stats", "--scheme", "wllc", "--length", "16", "--length", "24",
        "--samples", "200", "--seed", "9",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line, length in zip(lines, (16, 24)):
        data = json.loads(line)
        assert list(data) == list(STAT_FIELDS)
        assert data["length"] == length
        assert data["samples"] == 200
        assert data["seed"] == 9
        assert data["mean_zeros"] + data["mean_weight"] == pytest.approx(length + 1)


def test_stats_deterministic_output(capsys):
    argv = (
        "stats", "--scheme", "sjsf", "--length", "20", "--samples", "150",
        "--seed", "4",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    _, pooled, _ = run_cli(capsys, *argv, "--workers", "2")
    assert pooled == first


def test_stats_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "stats", "--scheme", "naf", "--length", "12", "--dimension", "1",
        "--samples", "100", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == list(STAT_FIELDS)
    assert len(lines) == 2


def test_stats_exhaustive(capsys):
    code, out, _ = run_cli(
        capsys,
        "stats", "--scheme", "wllc", "--length", "4", "--exhaustive",
    )
    assert code == 0
    data = json.loads(out.strip())
    assert data["experiment"] == "exhaustive"
    assert data["samples"] == 255

    code, _, err = run_cli(
        capsys,
        "stats", "--scheme", "wllc", "--length", "513", "--exhaustive",
    )
    assert code == 2
    assert "exhaustive wllc capped at length 512" in err


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm1", "--max-n", "15")
    assert code == 0
    assert "check: thm1" in out
    assert "result: PASS (256 cases)" in out

    code, out, _ = run_cli(capsys, "verify", "transducer", "--max-length", "8")
    assert code == 0
    assert "result: PASS" in out


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "thm1", "--instances", "5")
    assert code == 2
    assert "--instances" in err
    code, _, _ = run_cli(capsys, "verify", "entropy")
    assert code == 2


def test_verify_bounds_follow_check_signatures(capsys):
    for check, fn in CHECKS.items():
        accepted = inspect.signature(fn).parameters
        tiny = []
        for flag, param in VERIFY_FLAGS.items():
            if param in accepted:
                tiny += [flag, "3"]
                continue
            code, _, err = run_cli(capsys, "verify", check, flag, "3")
            assert code == 2, (check, flag)
            assert flag in err
        assert tiny, check
        code, out, _ = run_cli(capsys, "verify", check, *tiny)
        assert code == 0, (check, out)
        assert "result: PASS" in out


def run_fresh(*argv):
    """A new interpreter that imports digitkit from this checkout."""
    src = Path(digitkit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )


def modules_loaded_by(code):
    """The modules that a new interpreter loads while it runs `code`."""
    probe = (
        f"import sys\nbefore = set(sys.modules)\n{code}\n"
        "print(*sorted(set(sys.modules) - before))"
    )
    return set(run_fresh("-c", probe).stdout.splitlines()[-1].split())


def digitkit_modules(loaded):
    return {name for name in loaded if name.partition(".")[0] == "digitkit"}


LAYERS = ("expansions", "experiments", "multiexp", "recoding", "transducer", "verification")
LAZY_LAYERS = ("experiments", "transducer", "verification")


def test_package_import_loads_only_the_multiexp_layers():
    loaded = digitkit_modules(modules_loaded_by("import digitkit"))
    assert loaded == {"digitkit", "digitkit.expansions", "digitkit.recoding", "digitkit.multiexp"}


def test_sjsf_and_its_multiexp_load_only_the_multiexp_layers():
    code = (
        "import digitkit\n"
        "digitkit.sjsf(13, 5)\n"
        "digitkit.multiexp((2, 3), (5, 3), digitkit.RecodingScheme.SJSF, digitkit.ModGroup(101))"
    )
    loaded = modules_loaded_by(code)
    assert digitkit_modules(loaded) == {
        "digitkit", "digitkit.expansions", "digitkit.recoding", "digitkit.multiexp"
    }
    assert "fractions" not in loaded


# Each layer imports only layers before it; multiexp and transducer share a rank.
LAYER_RANKS = {
    "expansions": 0, "recoding": 1, "multiexp": 2, "transducer": 2,
    "experiments": 3, "verification": 4, "cli": 5,
}


def _imported_layers(path):
    """The digitkit modules a source file imports, at module level or inside
    functions, each with the line that imports it."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["digitkit" * bool(node.level), node.module]))
            modules = [module]
            if module == "digitkit":  # from . import layer
                modules = [f"digitkit.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            package, _, layer = module.partition(".")
            if package == "digitkit" and layer:
                yield layer.partition(".")[0], node.lineno


def test_layers_import_only_earlier_layers():
    package = Path(digitkit.__file__).resolve().parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYER_RANKS)
    for module in sorted(modules):
        for layer, line in _imported_layers(package / f"{module}.py"):
            assert LAYER_RANKS[layer] < LAYER_RANKS[module], (
                f"{module}.py:{line} imports {layer}"
            )


def test_cli_import_loads_every_layer():
    # The benchmark reads every digitkit.<layer> module from sys.modules
    # after importing digitkit.cli alone.
    loaded = digitkit_modules(modules_loaded_by("import digitkit.cli"))
    assert loaded == {"digitkit", "digitkit.cli", *(f"digitkit.{layer}" for layer in LAYERS)}


def test_lazy_layers_resolve_through_the_package():
    code = "import digitkit\n" + "\n".join(
        f"print(digitkit.{layer}.__name__)" for layer in LAZY_LAYERS
    )
    lines = run_fresh("-c", code).stdout.split()
    assert lines == [f"digitkit.{layer}" for layer in LAZY_LAYERS]


@pytest.mark.parametrize("first", [*LAZY_LAYERS, "cli"])
def test_multiexp_stays_the_function_whichever_module_loads_first(first):
    # Loading a submodule binds it to the package's attribute of its name;
    # the multiexp submodule must never replace the multiexp function.
    code = (
        f"import digitkit.{first}\nimport digitkit, sys\n"
        "print(digitkit.multiexp is sys.modules['digitkit.multiexp'].multiexp)"
    )
    assert run_fresh("-c", code).stdout == "True\n"


def test_exported_names_are_their_layers_objects():
    layers = [sys.modules[f"digitkit.{layer}"] for layer in LAYERS]
    for name in digitkit.__all__:
        homes = [layer for layer in layers if name in vars(layer)]
        assert homes, name
        for home in homes:
            assert vars(home)[name] is getattr(digitkit, name), (name, home.__name__)


def test_package_namespace_lists_and_binds_every_exported_name():
    listed = run_fresh("-c", "import digitkit\nprint(*dir(digitkit))").stdout.split()
    assert set(digitkit.__all__) | set(LAZY_LAYERS) <= set(listed)
    namespace = {}
    exec("from digitkit import *", namespace)
    for name in digitkit.__all__:
        assert namespace[name] is getattr(digitkit, name), name


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'digitkit' has no attribute 'nope'$"):
        digitkit.nope


def test_cli_imports_only_the_standard_library():
    loaded = {name.split(".")[0] for name in modules_loaded_by("import digitkit.cli")}
    assert "digitkit" in loaded
    foreign = loaded - set(sys.stdlib_module_names) - {"digitkit"}
    assert not foreign, sorted(foreign)


def test_cli_import_loads_no_process_pool_or_logging():
    # A --workers 1 run never needs the pool, and most commands log nothing.
    loaded = modules_loaded_by("import digitkit.cli")
    assert "digitkit.cli" in loaded
    assert not loaded & {"concurrent.futures", "multiprocessing", "logging"}


def test_cli_import_loads_no_openssl_hashes():
    # Sample seeds take blake2b from _blake2; hashlib would also load _hashlib.
    loaded = modules_loaded_by("import digitkit.cli")
    assert "digitkit.cli" in loaded
    assert not loaded & {"hashlib", "_hashlib"}


def test_output_does_not_depend_on_optimize_flag():
    # python -O strips assert statements; no result may rest on one.
    commands = (
        ("multiexp", "--group", "modp:101", "--base", "2", "--base", "3",
         "--n", "5", "--n", "3", "--scheme", "stacked-naf"),
        ("multiexp", "--group", "modp:1000003", "--base", "2", "--base", "3",
         "--base", "5", "--n", "987654321", "--n", "123456789", "--n", "555555",
         "--scheme", "wllc"),
        ("verify", "cost-model", "--instances", "20"),
    )
    for argv in commands:
        plain = run_fresh("-m", "digitkit", *argv).stdout
        optimized = run_fresh("-O", "-m", "digitkit", *argv).stdout
        assert "result: " in plain
        assert optimized == plain, argv


def test_stats_logs_redraws_to_stderr():
    # At length 1 and dimension 1, WLLC redraws every all-zero exponent.
    done = run_fresh(
        "-m", "digitkit", "stats", "--scheme", "wllc", "--length", "1",
        "--dimension", "1", "--samples", "20",
    )
    assert done.stderr == "length 1: redrew the all-zero exponent vector 16 time(s)\n"
    assert done.stdout == (
        '{"experiment": "stats", "length": 1, "dimension": 1, "scheme": "wllc", '
        '"samples": 20, "mean_weight": 2.0, "mean_weight1": 2.0, "mean_zeros": 0.0, '
        '"mean_multiplications": 1.0, "mean_squarings": 1.0, "std_error": 0.0, '
        '"seed": 0}\n'
    )


def test_markov_output(capsys):
    code, out, _ = run_cli(capsys, "markov", "--steps", "2")
    assert code == 0
    assert "states: 1 2 3 4 5 6" in out
    assert "from 1:" in out
    assert "k=2:" in out
    assert out.count("1/3") == 3
    assert "0.3333" in out


MARKOV_STEPS_2 = """\
states: 1 2 3 4 5 6
transition matrix P:
  from 1:     0   1/2   1/2     0     0     0   | 0.0000 0.5000 0.5000 0.0000 0.0000 0.0000
  from 2:     0     0   1/2   1/2     0     0   | 0.0000 0.0000 0.5000 0.5000 0.0000 0.0000
  from 3:     0   1/2     0     0   1/2     0   | 0.0000 0.5000 0.0000 0.0000 0.5000 0.0000
  from 4:     0     0     0   1/2     0   1/2   | 0.0000 0.0000 0.0000 0.5000 0.0000 0.5000
  from 5:     0     0     0     0   1/2   1/2   | 0.0000 0.0000 0.0000 0.0000 0.5000 0.5000
  from 6:     0     0     0   1/2   1/2     0   | 0.0000 0.0000 0.0000 0.5000 0.5000 0.0000
state distribution after k input bits (started in state 1):
  k=1:     0   1/2   1/2     0     0     0   | 0.0000 0.5000 0.5000 0.0000 0.0000 0.0000
  k=2:     0   1/4   1/4   1/4   1/4     0   | 0.0000 0.2500 0.2500 0.2500 0.2500 0.0000
stationary:     0     0     0   1/3   1/3   1/3   | 0.0000 0.0000 0.0000 0.3333 0.3333 0.3333
"""


def test_closed_stdout_exits_141_without_a_traceback():
    # markov --steps 1000 prints about 1.3 MB, more than a pipe holds, so the
    # run is still writing when the reader closes the pipe after one line.
    src = Path(digitkit.__file__).resolve().parents[1]
    with subprocess.Popen(
        [sys.executable, "-m", "digitkit", "markov", "--steps", "1000"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"states: 1 2 3 4 5 6\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_markov_steps_walk_once_and_are_capped(capsys, monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(cli, name)

        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    for name in ("_walk", "state_distribution"):
        monkeypatch.setattr(cli, name, counted(name))

    code, out, _ = run_cli(capsys, "markov", "--steps", "2")
    assert (code, out) == (0, MARKOV_STEPS_2)

    assert _MARKOV_STEPS_CAP >= 100
    code, out, err = run_cli(capsys, "markov", "--steps", str(_MARKOV_STEPS_CAP + 1))
    assert (code, out) == (2, "")
    assert f"exceeds its cap of {_MARKOV_STEPS_CAP}" in err

    calls.clear()
    code, out, _ = run_cli(capsys, "markov", "--steps", str(_MARKOV_STEPS_CAP))
    lines = out.splitlines()
    assert code == 0
    # One walk for all the steps, not one chain per step.
    assert sorted(calls) == ["_walk", "state_distribution"]
    assert lines[9:11] == MARKOV_STEPS_2.splitlines()[9:11]
    last = lines[-2].split()
    assert last[0] == f"k={_MARKOV_STEPS_CAP}:"
    assert last[2] == last[3] == f"1/{1 << _MARKOV_STEPS_CAP}"


def test_falsify_bit_prob(capsys):
    code, out, _ = run_cli(capsys, "falsify", "bit-prob")
    assert code == 0
    assert "11/16" in out
    assert "refuted" in out

    code, out, _ = run_cli(capsys, "falsify", "bit-prob", "--length", "2")
    assert code == 0
    assert "P(bit 0 = 0) = 3/4" in out
    assert "1/2 != 9/16" in out


def test_falsify_slope(capsys):
    code, out, _ = run_cli(
        capsys,
        "falsify", "sun-slope", "--length", "24", "--samples", "1500",
        "--seed", "7",
    )
    assert code == 0
    assert "distance to 1.4710" in out
    assert "distance to 1.5556" in out
    assert "refuted" in out


def test_global_flag_validation(capsys):
    code, _, _ = run_cli(capsys, "stats", "--scheme", "naf", "--length", "8",
                         "--seed", "-1")
    assert code == 2
    code, _, err = run_cli(capsys, "stats", "--scheme", "naf", "--length", "8",
                           "--seed", "abc")
    assert code == 2
    assert err.endswith("error: argument --seed: expected an integer\n")
    code, _, err = run_cli(capsys, "stats", "--scheme", "naf", "--length", "x")
    assert code == 2
    assert err.endswith("error: argument --length: expected an integer\n")
    code, _, _ = run_cli(capsys, "stats", "--scheme", "base3", "--length", "8")
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "recode", "--scheme", "naf", "--n", "x")
    assert code == 2
    assert err.endswith("error: argument --n: expected an integer\n")
    code, _, err = run_cli(capsys, "multiexp", "--group", "intadd", "--base", "y",
                           "--n", "5", "--scheme", "naf")
    assert code == 2
    assert err.endswith("error: argument --base: expected an integer\n")


# A valid invocation of each subcommand, and the shared flags it does not read.
UNREAD_FLAGS = {
    ("recode", "--scheme", "naf", "--n", "5"): ("--seed", "--format", "--workers"),
    ("multiexp", "--group", "intadd", "--base", "2", "--n", "5", "--scheme", "naf"): (
        "--seed", "--format", "--workers",
    ),
    ("markov", "--steps", "1"): ("--seed", "--format", "--workers"),
    ("verify", "thm1", "--max-n", "2"): ("--format", "--workers", "--seed"),
    ("falsify", "bit-prob", "--length", "2"): ("--format", "--seed", "--workers", "--samples"),
    ("verify", "thm2", "--max-length", "2"): ("--seed",),
    ("verify", "transducer", "--max-length", "2"): ("--seed",),
    ("verify", "wllc-vs-naf", "--max-length", "2"): ("--seed",),
    ("stats", "--scheme", "sjsf", "--length", "4", "--exhaustive"): (
        "--samples", "--seed", "--workers",
    ),
}


@pytest.mark.parametrize("argv", UNREAD_FLAGS)
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    assert run_cli(capsys, *argv)[0] in (0, 1)
    values = {"--seed": "5", "--format": "csv", "--workers": "2", "--samples": "5"}
    for flag in UNREAD_FLAGS[argv]:
        code, out, err = run_cli(capsys, *argv, flag, values[flag])
        assert (code, out) == (2, ""), (argv, flag)
        if "--exhaustive" in argv:  # stats reads these flags unless it counts
            assert err == f"error: --exhaustive takes no {flag}\n"
        else:
            assert f"unrecognized arguments: {flag} {values[flag]}" in err


def help_flags(capsys, *argv):
    """The flags that `digitkit <argv> --help` lists, --help aside."""
    assert main([*argv, "--help"]) == 0
    return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}


def test_each_check_and_claim_lists_exactly_its_flags_in_help(capsys):
    for check in CHECKS:
        expected = {BOUND_FLAGS[bound] for bound in bound_names(check)}
        assert help_flags(capsys, "verify", check) == expected, check
    for claim, expected in CLAIM_FLAGS.items():
        assert help_flags(capsys, "falsify", claim) == expected, claim


def test_readme_lists_each_checks_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### verify\n", 1)[1].split("\n### ", 1)[0]
    listed = {
        check: set(re.findall(r"`(--[a-z-]+)`", flags))
        for check, flags in re.findall(r"^- `([a-z0-9-]+)` \(([^)]*)\):", section, re.M)
    }
    assert listed == {
        check: {BOUND_FLAGS[bound] for bound in bound_names(check)} for check in CHECKS
    }


def naf_zero_probability():
    for k in range(64):
        closed_form = Fraction(2, 3) - Fraction(1, 6) * Fraction(-1, 2) ** k
        assert zero_output_probability(k) == closed_form, k
    return "2/3 - (1/6)(-1/2)^k"


def stationary():
    matrix = transition_matrix(double_naf_transducer())
    return "({})".format(",".join(map(str, stationary_distribution(matrix).weights)))


def exhaustive_mean_weight1(scheme):
    count, _, weight1, _ = _exhaustive_sums(scheme, 12, 2)
    return str(Fraction(weight1, count))


def exhaustive_slope(scheme):
    """The exact cost slope at (256, 512), dimension 2, as its limit plus
    the excess to two digits."""
    def total(length):
        count, _, weight1, top = _exhaustive_sums(scheme, length, 2)
        return Fraction(weight1 - top, count) + _width(scheme, length) - 1

    slope = (total(512) - total(256)) / 256
    limit = slope.limit_denominator(100)
    excess = slope - limit
    if not excess:
        return str(limit)
    return f"{limit} {'-' if excess < 0 else '+'} {abs(float(excess)):.1e}"


# The exact value of each settled number, by the command that recomputes it.
SETTLED_NUMBERS = {
    "digitkit falsify bit-prob --length 4":
        lambda: str(complement_bit_probabilities(4).zero_probability[0]),
    "digitkit falsify bit-prob --length 2":
        lambda: str(complement_bit_probabilities(2).pair_zero_probability[0, 1]),
    "digitkit markov": stationary,
    "digitkit verify transducer": naf_zero_probability,
    "digitkit verify thm2":
        lambda: re.search(r"max gap (\d+)", check_complement_weight_gap().details)[1],
    "digitkit stats --scheme sjsf --length 12 --exhaustive":
        lambda: exhaustive_mean_weight1(RecodingScheme.SJSF),
    "digitkit stats --scheme naf --length 12 --exhaustive":
        lambda: exhaustive_mean_weight1(RecodingScheme.NAF),
    "digitkit stats --scheme binary --length 256 --length 512 --exhaustive":
        lambda: exhaustive_slope(RecodingScheme.BINARY),
    "digitkit stats --scheme stacked-naf --length 256 --length 512 --exhaustive":
        lambda: exhaustive_slope(RecodingScheme.STACKED_NAF),
    "digitkit stats --scheme sjsf --length 256 --length 512 --exhaustive":
        lambda: exhaustive_slope(RecodingScheme.SJSF),
}


def test_readme_settled_numbers_are_recomputed(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Settled numbers\n", 1)[1].split("\n## ", 1)[0]
    header, *rows = (
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| ")
    )
    assert header == ["claim", "published value", "exact value", "command"]
    exact = {command.strip("`"): value for _, _, value, command in rows}
    assert len(exact) == len(rows)
    assert exact.keys() == SETTLED_NUMBERS.keys()
    for command, value in exact.items():
        assert value == SETTLED_NUMBERS[command](), command
        assert main(command.split()[1:]) == 0, command
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["stats", "--help"]) == 0
    capsys.readouterr()


def test_verify_rejects_oversized_bounds_before_any_work(capsys, monkeypatch):
    for check, fn in CHECKS.items():
        @functools.wraps(fn)
        def never(**bounds):
            raise AssertionError(f"{check} ran with {bounds}")

        monkeypatch.setitem(CHECKS, check, never)
        accepted = inspect.signature(fn).parameters
        for flag, param in VERIFY_FLAGS.items():
            if param not in accepted:
                continue
            cap = _BOUND_CAPS[param]
            code, out, err = run_cli(capsys, "verify", check, flag, str(cap + 1))
            assert code == 2, (check, flag)
            assert out == ""
            assert f"{param} = {cap + 1} exceeds its cap of {cap}" in err
