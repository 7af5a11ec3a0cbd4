"""The package's top level is exactly what README's Library section uses."""

import inspect
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import epibias
from epibias import config

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


def test_commands_that_draw_no_noise_leave_scipy_unimported(tmp_path, package_env):
    # scipy.special is most of the package's import time; only noise draws
    # load it.
    code = (
        "import contextlib, io, sys\n"
        "from epibias import cli\n"
        "seen = ['scipy.special' in sys.modules]\n"
        "for argv in (['fuzz-theorem', '--count', '3'], ['oracle', 'coin-epidemic']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv + ['--out', sys.argv[1]]) == 0\n"
        "    seen.append('scipy.special' in sys.modules)\n"
        "print(seen)\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=package_env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["[False,", "False,", "False]"]


def config_examples() -> dict[str, str]:
    """README's INI block and the indented example in `config`'s docstring."""
    readme = README.read_text(encoding="utf-8")
    docstring = re.search(r"^    \[sir\]\n(?:(?:    .*)?\n)*", config.__doc__, re.M).group(0)
    return {
        "readme": re.search(r"```ini\n(.*?)```", readme, re.S).group(1),
        "docstring": textwrap.dedent(docstring),
    }


@pytest.mark.parametrize("where", ["readme", "docstring"])
def test_documented_config_is_the_default(tmp_path, where):
    text = config_examples()[where]
    keys = re.findall(r"^(\w+) =", text, re.M)
    assert keys == [key for section in config.SETTINGS.values() for key in section]
    path = tmp_path / "example.ini"
    path.write_text(text, encoding="utf-8")
    assert config.load_config(str(path)) == config.ExperimentConfig()
