"""The repository scripts: configs/ is what scripts/make_configs.py writes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _make_configs():
    spec = importlib.util.spec_from_file_location(
        "_make_configs", ROOT / "scripts" / "make_configs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_configs_rerun_is_a_no_op(tmp_path, monkeypatch):
    script = _make_configs()
    dirs = ("graphs", "acceptance", "profiles")
    for attr, name in zip(("GRAPHS", "ACCEPT", "PROFILES"), dirs):
        monkeypatch.setattr(script, attr, tmp_path / name)
    script.main()
    for name in dirs:
        written = sorted(p.name for p in (tmp_path / name).iterdir())
        shipped = sorted(p.name for p in (ROOT / "configs" / name).iterdir())
        assert written == shipped, name
        for file in written:
            assert ((tmp_path / name / file).read_bytes()
                    == (ROOT / "configs" / name / file).read_bytes()), file
