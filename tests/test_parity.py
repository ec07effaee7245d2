"""Smoke test of tools/parity.py, the byte-parity digests of the run grid."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_equal_runs_match_and_a_changed_digest_fails(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert parity.main(["--first", "2", "--out", str(a)]) == 0
    assert parity.main(["--first", "2", "--out", str(b), "--against", str(a)]) == 0
    digests = json.loads(a.read_text())
    assert len(digests) == 2 and a.read_bytes() == b.read_bytes()
    assert list(digests) == ["6x4x1/full_matrix/seed0/auto-raw/hard-j6",
                             "6x4x1/full_matrix/seed0/auto-raw/hard-jplus"]
    name = next(iter(digests))
    digests[name] = "0" * 64
    a.write_text(json.dumps(digests))
    capsys.readouterr()
    assert parity.main(["--first", "2", "--against", str(a)]) == 1
    assert f"differs: {name}" in capsys.readouterr().out.splitlines()

