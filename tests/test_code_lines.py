"""tests/code_lines.py, which counts the code lines that changes report."""

from code_lines import code_lines

#: 11 code lines: every line of the multi-line string, the blank one
#: inside it too, and a string statement that is not a docstring; no
#: docstring (module, class, method, async function), comment or blank
#: line.
SOURCE = '''"""The module's docstring,
on two lines."""

# a comment
import os  # a trailing comment


class A:
    """A class's docstring."""

    def f(self):
        """A method's
        docstring."""
        text = """a multi-line

string"""
        "a string statement, not a docstring"
        return text


async def g():
    \'\'\'An async function's docstring.\'\'\'
    return (os.sep,
            1)
'''


def test_code_lines_counts_code_not_docstrings_comments_or_blank_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert code_lines(str(path)) == 11
