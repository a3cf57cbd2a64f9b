"""tests/check_all.py: one status line per check, exit 1 if any failed."""

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
