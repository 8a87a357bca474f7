"""scripts/diff_reports.py on two small suite reports."""

import importlib.util
import json
from pathlib import Path

from hyperlap.cli import main

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "diff_reports.py"
_spec = importlib.util.spec_from_file_location("diff_reports", _SCRIPT)
diff_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_reports)


def test_diff_reports_counts_changes_and_flips(tmp_path, capsys):
    a = tmp_path / "a.json"
    assert main(["suite", "--ids", "sum.gauss2x,lap.bailey", "--n", "3", "--seed", "5",
                 "--out", str(a)]) == 0
    doc = json.loads(a.read_text())
    rows = doc["results"][0]["reports"]
    capsys.readouterr()

    assert diff_reports.main([str(a), str(a)]) == 0
    out = capsys.readouterr().out
    assert f"rows: {len(rows)} -> {len(rows)}" in out
    assert "changed rows: 0" in out and "pass flips: none" in out

    rows[1]["abs_residual"] += 2e-12
    rows[1]["rel_residual"] += 1e-12
    rows[4]["pass"] = not rows[4]["pass"]
    b = tmp_path / "b.json"
    b.write_text(json.dumps(doc))
    assert diff_reports.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "changed rows: 2" in out
    assert "largest abs_residual change: 2e-12 (row 1, " in out
    assert "largest rel_residual change: 1e-12 (row 1, " in out
    assert f"pass flip: row 4, {rows[4]['identity_id']}" in out

    del rows[0]
    b.write_text(json.dumps(doc))
    assert diff_reports.main([str(a), str(b)]) == 1
    assert "row counts differ" in capsys.readouterr().out
