"""The library holds only code that runs, the CLI runs the certification
chain from one place, every transform row comes from one entry point, and
the README's examples run.

A function that only the tests call is a test oracle and lives in
`tests/helpers.py`; the README's `Library` and `CLI` blocks are run as
written, so a cut in the public API or a CLI contract cannot leave them
stale.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from tecc.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tecc"


def test_every_library_definition_is_named_elsewhere():
    # every function, class and method in src/tecc (dunders and __init__.py
    # aside) is named, as a whole word, somewhere in src/tecc or bench/*.py
    # besides its own definition
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    defs = [
        (path.name, node.lineno, node.name)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert len(defs) > 50
    corpus = "\n".join(p.read_text() for p in modules + sorted((ROOT / "bench").glob("*.py")))
    times_defined = Counter(name for _, _, name in defs)
    unnamed = [
        f"{module}:{line} {name}" for module, line, name in defs
        if len(re.findall(rf"\b{name}\b", corpus)) <= times_defined[name]
    ]
    assert unnamed == []


def test_cli_runs_the_certification_chain_from_one_function():
    # verify and macwilliams share one pipeline: in cli.py the length
    # refusal and the stages past the rank are each named in one function
    tree = ast.parse((SRC / "cli.py").read_text())
    namers = Counter(
        name
        for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for name in {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
    )
    names = ("check_length", "dual_weights_from_spectrum", "macwilliams_transform",
             "verify_distance7")
    assert {name: namers[name] for name in names} == dict.fromkeys(names, 1)


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["report"].five_valued
    assert (scope["rank"], scope["dim"]) == (21, 106)
    assert scope["result"].status == "corrected"
    assert scope["result"].corrected_word == scope["encode"](scope["gen"], 12345)


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every `tecc ...` line of the README's `CLI` block exits 0, run
    # in-process in a scratch directory (`build --out H.txt` writes there)
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", text, re.S | re.M).group(1)
    lines = [line.split("#")[0].split() for line in block.splitlines()]
    assert len(lines) > 5 and all(line[0] == "tecc" for line in lines)
    monkeypatch.chdir(tmp_path)
    exits = {" ".join(line): main(line[1:]) for line in lines}
    capsys.readouterr()
    assert exits == dict.fromkeys(exits, 0)
    assert (tmp_path / "H.txt").exists()


def test_transform_rows_is_the_one_transform_entry_point():
    # the sign helper, the Walsh-Hadamard products and transform_rows itself
    # are named in no library module but spectrum.py, so every row comes
    # from transform_rows, and every scan outside spectrum.py reads its rows
    # through the batches of the fold
    named = [
        path.name for path in sorted(SRC.glob("*.py"))
        if path.name != "spectrum.py"
        and re.search(r"\b(_signs|_walsh_hadamard|transform_rows)\b", path.read_text())
    ]
    assert named == []
