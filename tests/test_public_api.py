"""The package's public names and the names the demos import stay resolvable.

Every demo, and every fenced python block of README.md, runs to exit 0,
so one that calls a removed name or parameter fails here; every `pugeo`
command in README's bash blocks parses, so one that passes a removed flag
fails here too.
Every public name must also be used by the package itself or by a demo, so
nothing is exported for the tests alone.  The benchmark's span targets
(perfbench/spans.py) resolve, but for a fixed set of stale ones, so a
refactor that renames a traced function fails here.
"""

import ast
import importlib
import importlib.util
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import pugeo
from pugeo.cli import build_parser

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
# every `pugeo ...` line of README's bash blocks, with its \ continuations joined
README_COMMANDS = [line.strip() for block in re.findall(r"^```bash\n(.*?)^```", README,
                                                        re.MULTILINE | re.DOTALL)
                   for line in block.replace("\\\n", " ").splitlines()
                   if line.startswith("pugeo ")]


def _pugeo_imports(path):
    """(module, name) for every `from pugeo... import name` and `import pugeo...`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pugeo":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "pugeo")


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path, tmp_path):
    imports = list(_pugeo_imports(path))
    assert imports, f"{path.name} imports nothing from pugeo"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{path.name}: {module_name} has no {name}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, f"{path.name} failed:\n{run.stderr}"


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    # from the repo root, where the blocks' relative fixture paths resolve
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, f"README block failed:\n{run.stderr}"


def test_readme_has_commands():
    assert len(README_COMMANDS) >= 5


@pytest.mark.parametrize("command", README_COMMANDS,
                         ids=[f"command{i}" for i in range(len(README_COMMANDS))])
def test_readme_command_parses(command):
    try:
        build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit as exc:  # argparse exits 2 on an unknown flag or a bad value
        pytest.fail(f"README command does not parse (exit {exc.code}): {command}")


def test_readme_layout_names_every_module():
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    named = set(re.findall(r"^  (\w+\.py) ", layout.group(1), re.MULTILINE))
    modules = {p.name for p in (ROOT / "src" / "pugeo").glob("*.py")} - {"__init__.py"}
    assert named == modules


def test_all_entries_resolve_once():
    missing = [name for name in pugeo.__all__ if not hasattr(pugeo, name)]
    assert not missing
    assert len(pugeo.__all__) == len(set(pugeo.__all__))


def _referenced_names(path):
    """Every name a module loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_all_entries_used_outside_tests():
    sources = [p for p in (ROOT / "src" / "pugeo").glob("*.py") if p.name != "__init__.py"]
    used = set().union(*(_referenced_names(p) for p in sources + DEMOS))
    unused = [name for name in pugeo.__all__ if name not in used]
    assert not unused, f"exported but used only by tests: {unused}"


# span targets that no longer resolve; perfbench reports them as missing
STALE_SPAN_TARGETS = {
    "pugeo.sampling.NeighborIndex.knn", "pugeo.geometry.estimate_frame",
    "pugeo.geometry.fit_fundamental_forms", "pugeo.bvh.TriangleBVH.__init__",
    "pugeo.bvh.TriangleBVH.distances", "pugeo.losses.chamfer",
    "pugeo.losses.coarse_normal_loss_graph", "pugeo.losses.refined_normal_loss_graph",
}


def test_perfbench_span_targets_resolve_but_the_stale_ones(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    unresolved = set()
    for target in spans.TARGETS:
        try:
            spans._resolve(target.path)
        except LookupError:
            unresolved.add(target.path)
    assert unresolved == STALE_SPAN_TARGETS
