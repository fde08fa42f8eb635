"""Unusable --config and --out paths are config errors (exit 2) that name the path.

Each used to end in exit 1 with a traceback: a directory as --config raised
IsADirectoryError and a non-UTF-8 file UnicodeDecodeError out of `load_config`,
and an existing regular file as --out raised FileExistsError only after the
whole command had run.  --out is now checked before the command runs, and no
case leaves an output directory behind.  (A PermissionError case needs a
process that file permissions bind, which a root process is not.)
"""

from pathlib import Path

import pytest

from slabflow import cli

CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "combo_stable.json")


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


def test_directory_as_config(tmp_path, capsys):
    out = tmp_path / "out"
    code, err = run(capsys, "--config", str(tmp_path), "--out", str(out), "ellipticity")
    assert code == 2
    assert err.startswith(f"config error: cannot read config file {tmp_path}: ")
    assert not out.exists()


def test_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"density": "café"}'.encode("latin-1"))
    out = tmp_path / "out"
    code, err = run(capsys, "--config", str(path), "--out", str(out), "dispersion")
    assert code == 2
    assert err.startswith(f"config error: cannot read config file {path}: 'utf-8' codec ")
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"])
def test_regular_file_as_out(tmp_path, capsys, monkeypatch, below):
    # the command must not run at all: a sweep that reached it would fail the test
    monkeypatch.setitem(cli.COMMANDS, "dispersion", lambda cfg, out: pytest.fail("ran"))
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / below if below else blocker
    code, err = run(capsys, "--config", CONFIG, "--out", str(out), "dispersion")
    assert code == 2
    assert err.startswith(f"config error: --out {out}: {blocker} exists and is not a directory")
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("config, command, taken", [
    ("figure_forces.json", "figure-forces", "forces_tanh.csv"),
    ("combo_stable.json", "simulate", "trace.csv"),
])
def test_output_file_name_taken_by_a_directory(tmp_path, capsys, config, command, taken):
    # once an IsADirectoryError traceback from `_write`, after the command had done its work
    (tmp_path / taken).mkdir()
    path = str(Path(CONFIG).parent / config)
    code, err = run(capsys, "--config", path, "--out", str(tmp_path), command)
    assert code == 2
    assert err.startswith(f"config error: cannot write output file {tmp_path / taken}: ")
    assert (tmp_path / taken).is_dir()
