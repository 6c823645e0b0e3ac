"""The README's Library example runs, and every result it states beside a
line is what that line evaluates to."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> list[str]:
    """The lines of the python code block under the README's Library heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0].splitlines()


def stated(comment: str):
    """The plain literal a comment states, up to any ': ' that explains it;
    None for a comment that is no literal."""
    try:
        return ast.literal_eval(comment.split(": ", 1)[0])
    except (ValueError, SyntaxError):
        return None


def test_library_example_runs_and_states_its_results():
    namespace: dict = {}
    checked = 0
    for line in library_block():
        code, _, comment = line.partition("#")
        expected = stated(comment.strip())
        if expected is None:
            exec(code, namespace)
        else:
            assert eval(code, namespace) == expected, line
            checked += 1
    assert checked >= 5, "the walk found too few stated results"
