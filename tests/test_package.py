"""The package's top level is exactly what README's Library section uses."""

import inspect
import re
from pathlib import Path

import epibias

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_top_level_names_are_the_readme_imports():
    imported = re.search(r"from epibias import \((.*?)\)", library_snippet(), re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    public = {
        name for name, value in vars(epibias).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == names
    assert epibias.__version__


def test_readme_library_snippet_runs(capsys):
    exec(compile(library_snippet(), str(README), "exec"), {})
    monte_carlo, exact = capsys.readouterr().out.splitlines()
    causal, associational, bias = (float(x) for x in monte_carlo.split())
    assert bias == associational - causal
    # The snippet's last line documents its own output.
    assert exact == library_snippet().rstrip().rsplit("# ", 1)[1] == "-0.500000 True"
