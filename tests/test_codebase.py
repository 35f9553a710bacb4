"""Checks on the sources and docs themselves: no unreachable code, no stale commands."""

import ast
import os
import shlex

import pytest

from attnseg import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "attnseg")

# Public names that no code in the package refers to, each kept because the
# tests use it as a reference or to read back what the package writes.
TEST_HELPERS = {
    # the log likelihood by the log-domain forward pass: the oracle that the
    # dense and brute-force references check, and that saved models must keep
    "aud.forward_loglik",
    # the score of one explicit state path on the dense `log_transitions`: the
    # exhaustive search that Viterbi decoding is checked against
    "aud.viterbi_score",
    # reads back the textual PGM heatmap that `attnseg plot` writes
    "cli.read_pgm",
    # compares the sampler's incremental counts with a recount from scratch
    "baselines.DpsegSampler.counts_consistent",
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


def test_every_public_definition_is_referred_to_in_the_package():
    defined, referred = [], set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        defined += public_definitions(tree, name[:-3])
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    unreferred = {d for d in defined if d.rsplit(".", 1)[1] not in referred}
    assert unreferred == TEST_HELPERS


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
