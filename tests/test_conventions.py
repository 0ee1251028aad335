"""Conventions of the package and of its test suite."""

import ast
from pathlib import Path

pytest_plugins = "pytester"

ROOT = Path(__file__).resolve().parents[1]


def test_no_module_imports_another_modules_private_name():
    offences = []
    for path in sorted((ROOT / "src" / "dlmg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("dlmg")):
                offences += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                             if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert offences == []


def test_a_failing_hypothesis_test_reports_its_falsifying_example(pytester):
    # Under the suite's own pytest settings, warnings filters included.
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.makepyfile(test_fails="""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5
    """)
    result = pytester.runpytest_subprocess("test_fails.py")
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*", "*1 failed*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    assert result.ret == 1
