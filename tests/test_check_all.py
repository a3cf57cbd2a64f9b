"""tests/check_all.py: one status line per check and interpreter, exit 1 if
any check failed."""

import sys

import check_all


def script(tmp_path, name, body):
    (tmp_path / name).write_text(body)
    return name


def test_one_line_per_check_and_the_output_of_a_failed_one(
        tmp_path, monkeypatch, capsys):
    checks = (script(tmp_path, "good.py", "print('quiet')\n"),
              script(tmp_path, "bad.py",
                     "import sys\nprint('what broke')\nsys.exit(3)\n"))
    monkeypatch.setattr(check_all, "ROOT", tmp_path)
    monkeypatch.setattr(check_all, "CHECKS", checks)
    assert check_all.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["--- bad.py ---", "what broke"]
    assert [line.rsplit(" in ", 1)[0] for line in out[2:]] == [
        "good.py: exit 0", "bad.py: exit 3"]


def test_exits_0_when_every_check_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(check_all, "ROOT", tmp_path)
    monkeypatch.setattr(check_all, "CHECKS",
                        (script(tmp_path, "good.py", "print('quiet')\n"),))
    assert check_all.main() == 0
    assert capsys.readouterr().out.startswith("good.py: exit 0 in ")


def test_the_pin_check_runs_under_each_version_found(tmp_path, monkeypatch,
                                                     capsys):
    # python9.99 starts, python9.98 is a shim that cannot (as pyenv's is
    # for a version it has not selected) and python9.97 is not on PATH:
    # each gets its line, and only a run that fails fails the whole
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, body in (("python9.99", f'exec "{sys.executable}" "$@"'),
                       ("python9.98", "exit 127")):
        (bin_dir / name).write_text(f"#!/bin/sh\n{body}\n")
        (bin_dir / name).chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    pins = script(tmp_path, "pins.py", "import sys\nprint(sys.argv[0])\n")
    monkeypatch.setattr(check_all, "ROOT", tmp_path)
    monkeypatch.setattr(check_all, "CHECKS", (pins,))
    monkeypatch.setattr(check_all, "PINS", pins)
    monkeypatch.setattr(check_all, "VERSIONS", ("9.97", "9.98", "9.99"))
    assert check_all.main() == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" in ", 1)[0] for line in out] == [
        "pins.py under python9.97: not found",
        "pins.py under python9.98: not found",
        "pins.py under python9.99: exit 0"]
