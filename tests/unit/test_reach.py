"""Unit tests for the statement-reach probe (tools/reach.py)."""

import importlib.util
import json
import pathlib
import textwrap

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[2] / "tools" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)


def test_counts_function_body_statements_by_their_header_lines():
    source = textwrap.dedent('''\
        X = 1


        def f(x):
            """Docstring."""
            global X
            try:
                y = (
                    x + 1)
            except ValueError:
                pass

            @staticmethod
            def g():
                ...
            return y


        class C:
            Z = 2

            def m(self):
                return self.Z
        ''')
    headers = sorted((r.start, r.stop - 1)
                     for r in reach.function_statements(source))
    # try, the two-line assignment, pass, the decorated def (decorator
    # through def line), return y and return self.Z; not the module or
    # class-level assignments, the docstring, ``global`` or ``...``.
    assert headers == [(7, 7), (8, 9), (11, 11), (13, 14), (16, 16),
                       (23, 23)]


def test_report_gates_on_the_unreached_share(tmp_path, capsys):
    empty = tmp_path / "reach.json"
    empty.write_text(json.dumps({}))
    assert reach.main(["report", str(empty), "--max-unreached", "100"]) == 0
    assert "(100.0 %)" in capsys.readouterr().out
    assert reach.main(["report", str(empty), "--max-unreached", "5"]) == 1


@pytest.mark.parametrize("pct", ["nan", "-1", "101"])
def test_report_refuses_a_bound_that_is_not_a_percentage(tmp_path, pct):
    empty = tmp_path / "reach.json"
    empty.write_text(json.dumps({}))
    with pytest.raises(SystemExit):
        reach.main(["report", str(empty), "--max-unreached", pct])
