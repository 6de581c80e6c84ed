import argparse
import json

from foldatlas import cli
from foldatlas.system import build_normal_form, serialize_system


def test_main_builds_its_parser_once(monkeypatch, tmp_path, capsys):
    # Every build adds the command sub-parsers once: three main calls of two
    # commands build one parser, and each call parses its own arguments.
    builds = []
    real = argparse.ArgumentParser.add_subparsers

    def add_subparsers(parser, **kwargs):
        builds.append(parser.prog)
        return real(parser, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", add_subparsers)
    cli.build_parser.cache_clear()
    path = tmp_path / "system.json"
    path.write_text(serialize_system(build_normal_form(-0.6, 1.2, 0.8, -1.0)))
    reports = []
    for point in ("0,0,0", "0.3,0,0"):
        assert cli.main(["classify", str(path), "--point", point]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert builds == ["foldatlas"]
    assert [r["point"] for r in reports] == [[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]
    assert [r["tangency"]["ttype"] for r in reports] == ["fold-fold", "fold-regular"]
    assert cli.main(["sweep", "--alpha=-1:1:2", "--beta=-1:1:2", "--gamma", "1"]) == 0
    assert capsys.readouterr().out.count("\n") == 5
    assert builds == ["foldatlas"]
