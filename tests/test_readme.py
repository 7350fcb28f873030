"""The README's quick start and command block, run against the package.

Run as a script (`python tests/test_readme.py`, from outside the
checkout) it checks an installed fareyshift instead of the sources.
"""

import ast
import contextlib
import io
import re
import shlex
import types
from pathlib import Path

import fareyshift
from fareyshift import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# the value each expression line of the quick start shows in its comment,
# as its repr or str; None for the line whose comment is prose
SHOWN = ["'100'", "FareyInterval(2/1, 3/1)", "(3+1*sqrt(5))/2", "3/2^2", "2", None,
         "(True, '3739/1870')"]


def quick_start() -> str:
    return re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)


def cli_block() -> list[list[str]]:
    """The argv of each `fareyshift ...` line of the README's command block."""
    block = re.search(r"## Command line\n.*?```\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("fareyshift ")]


def test_readme_quick_start():
    block = quick_start()
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            shown.append((value, comment))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert len(shown) == len(SHOWN)
    for (value, comment), want in zip(shown, SHOWN):
        if want is None:
            # the golden-section enclosure: exact endpoints around (sqrt(5) - 1)/2
            assert value.contains(fareyshift.periodic_point("", "0"))
            continue
        assert want in (repr(value), str(value)), (value, want)
        assert comment.startswith(want), (comment, want)


def test_readme_cli_block():
    commands = cli_block()
    assert len(commands) == 13
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code == 0, (argv, code)
        assert out.getvalue(), argv


def test_namespace_is_what_the_readme_and_bench_import():
    block = quick_start()
    readme = {a.asname or a.name for node in ast.walk(ast.parse(block))
              if isinstance(node, ast.ImportFrom) and node.module == "fareyshift"
              for a in node.names}
    # bench/tests/test_bench_checks.py imports these from the package too
    bench = {"INFINITE_DISTANCE", "EventOutcome", "ScheduleEvent", "admissible_words"}
    public = {k for k, v in vars(fareyshift).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == readme | bench


if __name__ == "__main__":
    print("fareyshift from", fareyshift.__file__)
    test_readme_quick_start()
    test_readme_cli_block()
    test_namespace_is_what_the_readme_and_bench_import()
    print("README quick start and command block: ok")
