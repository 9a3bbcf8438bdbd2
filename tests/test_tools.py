import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        f"tool_{name}", ROOT / "tools" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Timed(Exception):
    """Raised in place of the A/B run."""


def test_ab_solve_keeps_an_existing_default_record(tmp_path, monkeypatch):
    ab = load_tool("ab_solve")

    def no_run(*args):
        raise Timed
    monkeypatch.setattr(ab, "run", no_run)
    monkeypatch.chdir(tmp_path)
    record = tmp_path / "BENCH_fixed-n20.json"
    record.write_text('{"kept": true}\n')
    argv = [str(ROOT), str(ROOT), "--workload", "fixed-n20"]
    with pytest.raises(SystemExit) as exited:
        ab.main(argv)
    # sys.exit with a message exits with status 1
    assert "BENCH_fixed-n20.json exists" in exited.value.code
    assert record.read_text() == '{"kept": true}\n'
    # a file named by --out is written, even when it exists
    for out in ("other.json", str(record)):
        with pytest.raises(Timed):
            ab.main(argv + ["--out", out])
    # and so is the default file when there is none yet
    record.unlink()
    with pytest.raises(Timed):
        ab.main(argv)
