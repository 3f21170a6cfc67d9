import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "gate_summary.py"
_spec = importlib.util.spec_from_file_location("gate_summary", _PATH)
gate_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate_summary)

_DOCUMENTED = ("test_criterion_3_gaussian_kernel_limit", "test_criterion_4_gaussian",
               "test_criterion_4_inverted_logistic")


def _report(tmp_path, red, extra=""):
    cases = "".join(
        f'<testcase classname="tests.test_acceptance" name="{n}"><failure message="x"/>'
        "</testcase>" for n in red)
    xml = ('<?xml version="1.0"?><testsuites><testsuite name="pytest">'
           '<testcase classname="tests.test_cli" name="test_ok"/>'
           '<testcase classname="tests.test_cli" name="test_skip"><skipped/></testcase>'
           f"{cases}{extra}</testsuite></testsuites>")
    path = tmp_path / "junit.xml"
    path.write_text(xml)
    return str(path)


def test_exits_0_only_on_the_documented_reds(tmp_path, capsys):
    assert gate_summary.main(["gate", _report(tmp_path, _DOCUMENTED)]) == 0
    assert "1 passed, 3 failed, 0 error, 1 skipped" in capsys.readouterr().out
    # one documented leg turning green, or any other red, fails the gate
    assert gate_summary.main(["gate", _report(tmp_path, _DOCUMENTED[:2])]) == 1
    other = ('<testcase classname="tests.test_kernels" name="test_x">'
             '<error message="boom"/></testcase>')
    assert gate_summary.main(["gate", _report(tmp_path, _DOCUMENTED, other)]) == 1
    assert "UNEXPECTED" in capsys.readouterr().out
