import re
from pathlib import Path

from minmaxrank.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].objective == 1
    assert namespace["inst"].n == 10


def test_command_line_synopsis_names_every_long_flag():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    synopsis = re.search(r"```\n(.*?)```", section, re.S).group(1)
    # each "minmaxrank <command>" line starts a command; indented lines continue it
    named = {}
    for line in synopsis.splitlines():
        if line.startswith("minmaxrank "):
            command = line.split()[1]
        named.setdefault(command, set()).update(re.findall(r"--[a-z0-9-]+", line))
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    flags = {
        name: {opt for action in sub._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, sub in commands.items()
    }
    assert named == flags
