"""``scripts/loc.py``: the code lines and docstring lines of each module of ``src/cohres``."""

import importlib.util

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("loc", REPO_ROOT / "scripts" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

MODULE = '''"""Module docstring,
on two lines."""

# a comment line

import math  # a trailing comment is still a code line


class Box:
    """Class docstring."""

    SIDES = (
        1,
        2,
    )

    def area(self):
        """Function
        docstring.
        """
        # the next string is an expression, not a docstring
        text = """a
        b"""
        return math.prod(self.SIDES) + len(text)
'''


def test_blank_lines_comments_and_docstrings_are_not_code():
    # code: import; class; SIDES = (, 1, 2, ); def; text = """a, b"""; return
    assert loc.count(MODULE) == (10, 6)


def test_each_checkout_gets_a_column_pair_and_a_total(capsys, tmp_path):
    for name, sources in (("a", {"m.py": MODULE}), ("b", {"m.py": MODULE, "n.py": "x = 1\n"})):
        package = tmp_path / name / "src" / "cohres"
        package.mkdir(parents=True)
        for module, source in sources.items():
            (package / module).write_text(source, encoding="utf-8")
    assert loc.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert rows == {
        "module": ["code", "doc", "code", "doc"],
        "m.py": ["10", "6", "10", "6"],
        "n.py": ["-", "-", "1", "0"],
        "total": ["10", "6", "11", "6"],
    }
