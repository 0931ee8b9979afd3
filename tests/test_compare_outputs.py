"""tools/compare_outputs.py: the byte-for-byte gate between two trees."""

import importlib.util
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _tool():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_command_list():
    # the 108 verify configurations first, then locus, two fieldmaps,
    # report and ode of 4 models at 3 masses, then 5 edges of the radial
    # run, then the usage errors
    commands = _tool().COMMANDS
    assert [c.argv[0] for c in commands[:108]] == ["verify"] * 108
    edges = commands[108 + 4 * 3 * 5:][:5]
    assert [c.argv[:3] for c in edges] == [("ode", "--model", "soler")] * 5
    assert len(commands) == 108 + 4 * 3 * 5 + 5 + 7
    assert len({c.label() for c in commands}) == len(commands)


def test_a_tree_has_no_difference_from_itself(tmp_path):
    # and a copy that writes another schema differs in every stdout
    tool = _tool()
    assert tool.differences(SRC, SRC, tool.COMMANDS[:3]) == []
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    settings = changed / "nldirac" / "settings.py"
    settings.write_text(settings.read_text().replace('SCHEMA = "1"',
                                                     'SCHEMA = "2"'))
    command = tool.COMMANDS[0]
    assert tool.differences(SRC, changed, [command]) == [
        f"{command.label()}: stdout differs"]
    assert tool.main(["only-one-tree"]) == 2
