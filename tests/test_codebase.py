"""Checks on the sources and docs themselves: no unreachable code, no setting that
nothing sets, one error class per exit code, one .npz reader and writer, one writer
of manifests and logs, no stale commands, and no run-time dependency beyond numpy
and the standard library."""

import argparse
import ast
import builtins
import dataclasses
import json
import os
import shlex
import subprocess
import sys
import wave

import numpy as np
import pytest

from attnseg import aligner, aud, baselines, cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "attnseg")

# Public names that no code in the package refers to, each kept because the
# tests use it as a reference or to read back what the package writes.
TEST_HELPERS = {
    # the log likelihood by the log-domain forward pass: the oracle that the
    # dense and brute-force references check, and that saved models must keep;
    # tests/test_acceptance.py imports it from here
    "aud.forward_loglik",
    # Viterbi decoding of one utterance, as a group of one of `decode_corpus`,
    # which `aud-decode` calls: the benchmark tracer wraps it by name, and the
    # tests check it against the dense Viterbi oracle
    "aud.decode_units",
    # the score of one explicit state path on the dense `log_transitions`: the
    # exhaustive search that Viterbi decoding is checked against; it stays next to
    # `log_transitions`, which the benchmark tracer wraps by name
    "aud.viterbi_score",
    # one utterance's mean over runs, through `average_runs`, which the package
    # calls on whole runs; tests/test_acceptance.py imports it from here
    "segmenter.average_matrices",
}


def public_definitions(tree: ast.Module, module: str) -> list[str]:
    """Dotted names of the public module-level functions and classes and of the
    public methods of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append("%s.%s" % (module, node.name))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += ["%s.%s.%s" % (module, node.name, item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def package_trees():
    """(file name, syntax tree) of each module of the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                yield name, ast.parse(f.read())


def test_every_public_definition_is_referred_to_in_the_package():
    defined, referred = [], set()
    for name, tree in package_trees():
        defined += public_definitions(tree, name[:-3])
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    unreferred = {d for d in defined if d.rsplit(".", 1)[1] not in referred}
    assert unreferred == TEST_HELPERS


# each config dataclass: (the subcommand whose flags set it, its examples/tiny.ini section)
CONFIG_CALLERS = {
    cli.SynthConfig: ("synth", "synth"),
    aud.AudConfig: ("aud-train", None),
    aligner.AlignerConfig: ("train-aligner", "aligner"),
    baselines.DpsegConfig: ("baseline-dpseg", "dpseg"),
    cli.PipelineConfig: ("pipeline", "pipeline"),
}
# Config fields that only the tests set. `dtype` stays a field because the
# gradient oracles run the aligner's own forward and backward passes in float64.
TEST_ONLY_FIELDS = ["AlignerConfig.dtype"]


def test_every_config_field_is_a_flag_or_an_example_key():
    declared = {node.name for _, tree in package_trees() for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name.endswith("Config")}
    assert declared == {cls.__name__ for cls in CONFIG_CALLERS}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    example = cli.load_config_file(os.path.join(ROOT, "examples", "tiny.ini"))
    unset = []
    for cls, (command, section) in CONFIG_CALLERS.items():
        flags = {a.dest[len("config."):] for a in subparsers.choices[command]._actions
                 if a.dest.startswith("config.")}
        unset += ["%s.%s" % (cls.__name__, f.name) for f in dataclasses.fields(cls)
                  if f.name not in flags and f.name not in example.get(section, {})]
    assert unset == TEST_ONLY_FIELDS


# ---------------------------------------------------------------------------
# The package raises three errors, one per exit code, and `cli.main` maps each once.

EXIT_CLASSES = {"ConfigError": "EXIT_CONFIG", "DataError": "EXIT_DATA",
                "NumericalError": "EXIT_NUMERIC"}


def _name(node) -> str | None:
    """The identifier that a `Name` or `Attribute` node ends in."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_builtin_exception(name: str | None) -> bool:
    return isinstance(getattr(builtins, name or "", None), type) and issubclass(
        getattr(builtins, name), BaseException)


def test_errors_are_the_three_exit_classes():
    trees = dict(package_trees())
    defined = [(file, node.name) for file, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and any(_is_builtin_exception(_name(b)) or _name(b) in EXIT_CLASSES
                       or (_name(b) or "").endswith("Error") for b in node.bases)]
    assert sorted(defined) == [("errors.py", name) for name in sorted(EXIT_CLASSES)]

    raised = {(file, node.lineno, _name(getattr(node.exc, "func", node.exc)))
              for file, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None}
    assert [r for r in sorted(raised)
            if r[2] not in EXIT_CLASSES and not _is_builtin_exception(r[2])] == []

    main = next(node for node in trees["cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    run = next(node for node in ast.walk(main) if isinstance(node, ast.Try)
               and any(_name(getattr(n, "func", None)) == "_run" for n in ast.walk(node)))
    mapped = {}
    for handler in run.handlers:
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        code = next(_name(n.value) for n in handler.body if isinstance(n, ast.Return))
        mapped.update({_name(t): code for t in types})
    assert mapped == {**EXIT_CLASSES, "OSError": "EXIT_DATA"}


# ---------------------------------------------------------------------------
# One .npz writer and one reader, `numerics.save_archive` and `numerics.load_archive`,
# and only the reader catches what a bad archive raises.

NPZ_FUNCTIONS = {"load", "savez", "savez_compressed"}
ARCHIVE_PAIR = {"save_archive", "load_archive"}


def test_npz_files_go_through_the_numerics_archive_pair():
    found, pair_names = [], set()
    for file, tree in package_trees():
        pair = [node for node in tree.body if file == "numerics.py"
                and isinstance(node, ast.FunctionDef) and node.name in ARCHIVE_PAIR]
        pair_names |= {function.name for function in pair}
        inside = {id(n) for function in pair for n in ast.walk(function)}
        for node in ast.walk(tree):
            npz = (isinstance(node, ast.Attribute) and node.attr in NPZ_FUNCTIONS
                   and _name(node.value) in ("np", "numpy") and id(node) not in inside)
            names_errors = file != "numerics.py" and "ARCHIVE_ERRORS" in (
                _name(node), getattr(node, "name", None))  # a Name, Attribute or import alias
            if npz or names_errors:
                found.append("%s:%d" % (file, getattr(node, "lineno", 0)))
    assert pair_names == ARCHIVE_PAIR
    assert found == []


# ---------------------------------------------------------------------------
# One stage runner, `cli._run`, writes every manifest and every log.

def test_manifests_and_logs_are_written_by_the_stage_runner_alone():
    found, in_runner = [], []
    for file, tree in package_trees():
        runner = [node for node in tree.body if file == "cli.py"
                  and isinstance(node, ast.FunctionDef) and node.name == "_run"]
        inside = {id(n) for function in runner for n in ast.walk(function)}
        for node in ast.walk(tree):
            manifest = isinstance(node, ast.Call) and _name(node.func) == "write_manifest"
            log = isinstance(node, ast.Constant) and ".log.json" in str(node.value)
            if manifest or log:
                (in_runner if id(node) in inside else found).append(
                    "%s:%d %s" % (file, node.lineno, "write_manifest" if manifest else "log"))
    assert found == []
    assert sorted(entry.split()[1] for entry in in_runner) == ["log", "write_manifest"]


def readme_commands() -> list[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    commands, in_block = [], False
    for line in lines:
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("attnseg "):
            commands.append(line)
    return commands


def test_readme_has_commands():
    assert len(readme_commands()) >= 11


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "attnseg"
    args = cli.build_parser().parse_args(argv[1:])
    assert args.command == argv[1]


# ---------------------------------------------------------------------------
# The package runs on numpy and the standard library; scipy is a test oracle only.

def test_no_module_of_the_package_imports_scipy():
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (name, node.lineno, m) for m in modules
                      if m.split(".")[0] == "scipy"]
    assert found == []


# Runs the speech stages with scipy made unimportable, then names every scipy
# module that is loaded all the same.
SCIPY_FREE_SPEECH = """
import json, sys
sys.modules["scipy"] = None  # `import scipy` and `import scipy.x` now raise ImportError
from attnseg import cli
wav_list, out = sys.argv[1:]
codes = [cli.main(["mfcc", "--wav-list", wav_list, "--out", out + "/feats.npz"]),
         cli.main(["aud-train", "--features", out + "/feats.npz", "--out", out + "/aud.npz",
                   "--units", "4", "--states", "2", "--mix", "1", "--iterations", "2",
                   "--quiet"]),
         cli.main(["aud-decode", "--model", out + "/aud.npz", "--features",
                   out + "/feats.npz", "--out", out + "/units.txt"])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m, module in sys.modules.items() if m.split(".")[0] == "scipy" and module)}))
"""


def test_speech_stages_run_without_scipy(tmp_path):
    rng = np.random.default_rng(0)
    t = np.arange(8000) / 16000.0
    lines = []
    for i, hz in enumerate((300, 900, 2000)):
        path = str(tmp_path / ("u%d.wav" % i))
        signal = 0.3 * np.sin(2 * np.pi * hz * t) + 0.01 * rng.standard_normal(len(t))
        with wave.open(path, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes((signal * 32767).astype("<i2").tobytes())
        lines.append("u%d %s\n" % (i, path))
    wav_list = tmp_path / "wavs.txt"
    wav_list.write_text("".join(lines))
    path = [os.path.dirname(PACKAGE), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    run = subprocess.run([sys.executable, "-c", SCIPY_FREE_SPEECH, str(wav_list),
                          str(tmp_path)], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": []}
    assert len((tmp_path / "units.txt").read_text().splitlines()) >= 3
