"""README.md states the public contract; these tests hold it to the code.

Every ```python block must run with RuntimeWarning as an error. The names
README puts in backticks that tailcv defines at module level must be exactly
``tailcv.__all__`` and ``tailcv.cli.__all__``, and README may name no
``_``-prefixed identifier (dunders such as ``__all__`` aside).
"""

import ast
import os
import re
import warnings

import pytest

import tailcv
import tailcv.cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
# A code span that is a name, a dotted name or a call, such as `hill`,
# `SufficientStatistics.of` or `hill(sample, k)`: its first identifier.
NAMED = re.compile(r"([A-Za-z_]\w*)(\.\w+)*(\(.*\))?")


def _readme() -> str:
    with open(README, encoding="utf-8") as handle:
        return handle.read()


def _python_blocks() -> list:
    text = _readme()
    return [(text.count("\n", 0, match.start()) + 1, match.group(2))
            for match in FENCE.finditer(text) if match.group(1) == "python"]


def _defined_names() -> set:
    """The names each tailcv module defines at module level."""
    package, names = os.path.dirname(tailcv.__file__), set()
    for filename in os.listdir(package):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


BLOCKS = _python_blocks()


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line-{line}" for line, _ in BLOCKS])
def test_python_block_runs(line, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(code, f"README.md:{line}", "exec"), {"__name__": "readme"})


def test_readme_has_a_python_block():
    assert BLOCKS


def test_backticked_names_are_the_public_names():
    prose = FENCE.sub("", _readme())
    spans = (" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose))
    named = {match.group(1) for match in map(NAMED.fullmatch, spans) if match}
    public = set(tailcv.__all__) | set(tailcv.cli.__all__)
    assert public - named == set(), "public names README does not state"
    assert (named & _defined_names()) - public == set(), "non-public names in README"


def test_no_private_identifier():
    found = {name for name in re.findall(r"(?<!\w)_\w+", _readme())
             if not re.fullmatch(r"__\w+__", name)}
    assert found == set()
