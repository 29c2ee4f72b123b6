import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "report_parity", ROOT / "tools" / "report_parity.py"
)
report_parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_parity)


def case_line(head, name, residual, passed=True):
    case = {"kind": "residual", "max_residual": residual, "name": name,
            "pass": passed, "tol": 1e-12}
    return "%s %s" % (head, json.dumps(case, sort_keys=True))


def test_verdicts_allow_residual_shifts_and_report_the_largest():
    head, all_head = "current seed=0 trials=25", "all seed=0 trials=25"
    rest = '%s {"pass": true, "suite": "current"}' % head
    under_all = case_line(all_head, "current/a", "4.0e-16")
    parent = [case_line(head, "a", "1.0e-16"), under_all, rest]
    change = [case_line(head, "a", "3.0e-16"), under_all, rest]
    mismatched, shifts = report_parity.verdict_lines(parent, change)
    assert mismatched == []
    # a suite report's case and the same case under "all" share one entry
    assert list(shifts) == ["current/a"]
    assert abs(shifts["current/a"] - 2e-16) < 1e-30


def test_verdicts_reject_a_changed_pass_or_a_missing_line():
    head = "current seed=0 trials=25"
    parent = [case_line(head, "a", "1.0e-16"), case_line(head, "b", "1.0e-16")]
    flipped = [case_line(head, "a", "1.0e-16", passed=False), parent[1]]
    mismatched, _ = report_parity.verdict_lines(parent, flipped)
    assert mismatched == [parent[0], flipped[0]]
    mismatched, _ = report_parity.verdict_lines(parent, parent[:1])
    assert mismatched == ["2 report lines against 1"]


def test_a_checkout_that_cannot_import_exits_2_with_one_line(tmp_path, capsys):
    # 1 would read as "the reports differ"
    assert report_parity.main([str(tmp_path), str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert str(tmp_path) in err and "child exited with status 1" in err
