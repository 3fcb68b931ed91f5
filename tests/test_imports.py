"""The package stays standard-library only, and each command imports
only the modules it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weblex"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "__future__" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []


# ---- each command loads only the modules it runs

GRAPH_PROBE = """
import json, sys
from weblex import cli
code = cli.run(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

HEAVY = {"weblex.bpe", "weblex.ibm1", "dataclasses"}


def _modules_after(argv, cwd):
    """The sys.modules names of a fresh interpreter after cli.run(argv)."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", GRAPH_PROBE, json.dumps(argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0, done.stderr
    return set(result["modules"])


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    from weblex.cli import run

    ws = tmp_path_factory.mktemp("graph")
    (ws / "pairs.tsv").write_text("a ɖo\tx\ncé\n", encoding="utf-8")
    (ws / "corpus.txt").write_text("a ɖo wutu cé\nnɔnvi cé\n", encoding="utf-8")
    (ws / "ids.txt").write_text("4 5\n", encoding="utf-8")
    assert run(["lexicon", "build", "--in", str(ws / "pairs.tsv"), "--out", str(ws / "lex.weblex")]) == 0
    assert run(["vocab", "build", "--strategy", "web", "--lexicon", str(ws / "lex.weblex"),
                "--in", str(ws / "corpus.txt"), "--out", str(ws / "vocab.weblex")]) == 0
    return ws


@pytest.mark.parametrize("argv", [
    ["decode", "--vocab", "vocab.weblex", "--in", "ids.txt", "--out", "out.txt"],
    ["encode", "--vocab", "vocab.weblex", "--in", "corpus.txt", "--out", "out.txt"],
    ["tokenize", "--strategy", "web", "--lexicon", "lex.weblex", "--vocab", "vocab.weblex",
     "--in", "corpus.txt", "--out", "out.txt"],
    ["eval", "--hyp", "corpus.txt", "--ref", "corpus.txt", "--out", "out.txt"],
], ids=lambda argv: argv[0])
def test_command_skips_bpe_ibm1_and_dataclasses(artifacts, argv):
    modules = _modules_after(argv, artifacts)
    assert "weblex.cli" in modules
    assert modules & HEAVY == set()


def test_eval_loads_no_segmenter_lexicon_or_vocab(artifacts):
    modules = _modules_after(["eval", "--hyp", "corpus.txt", "--ref", "corpus.txt", "--out", "out.txt"], artifacts)
    assert "weblex.metrics" in modules
    assert modules & {"weblex.segmenter", "weblex.lexicon", "weblex.vocab"} == set()


def test_bare_package_import_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = "import sys, weblex; print(sorted(m for m in sys.modules if m.startswith('weblex.')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
