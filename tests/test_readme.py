"""The README's library snippet runs against the current API and prints
the numbers its comments state."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_snippet():
    section = README.read_text().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_prints_the_numbers_in_its_comments():
    """Each print with a trailing comment prints, in order, the comment's
    numbers to the comment's decimals; the other prints run unchecked."""
    code = library_snippet()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    checked = 0
    for line, shown in zip(prints, printed):
        if "#" not in line:
            continue
        stated = re.findall(r"-?\d+\.\d+", line.split("#", 1)[1])
        values = [float(v) for v in shown.split()]
        assert len(values) == len(stated), line
        for value, text in zip(values, stated):
            decimals = len(text.split(".")[1])
            assert f"{value:.{decimals}f}" == text, f"{line}: printed {value}"
        checked += 1
    assert checked == 2
