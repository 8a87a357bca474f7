"""scripts/certify.py writes the suite's own document."""

import importlib.util
import json
from pathlib import Path

from hyperlap.verifier import SamplerConfig, run_suite

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "certify.py"
_spec = importlib.util.spec_from_file_location("certify", _SCRIPT)
certify = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certify)


def test_certify_report_is_the_suite_document(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert certify.main(["--n", "2", "--seed", "7", "--out", str(out)]) == 0
    assert f"report written to {out}" in capsys.readouterr().out
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    want = run_suite(cfg=SamplerConfig(seed=7), n_per_id=2).to_dict()
    assert json.loads(text) == want
