"""The README's python snippets and command lines must run as written."""

import re
import shlex
from pathlib import Path

from actionpairs import cli


def test_readme_snippets_execute():
    text = Path(__file__).resolve().parent.parent.joinpath("README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks, "expected python examples in the README"
    ns: dict = {}
    for block in blocks:
        # drop the trailing expression-comment lines used for display
        lines = []
        for line in block.splitlines():
            stripped = line.strip()
            if stripped and "#" in line and not stripped.startswith("#"):
                code, _, comment = line.partition("#")
                if code.strip() and not code.rstrip().endswith(("=", "(", ",")):
                    line = code.rstrip()
            lines.append(line)
        exec(compile("\n".join(lines), "<readme>", "exec"), ns)
    # spot-check the claims the snippets print as comments
    assert ns["rep"].ok and ns["b"].target.size == 343


def test_readme_command_lines_run(capsys):
    # the README's command-line block, run through `cli.main` line by line:
    # the fl93 run is its catalogued failure (exit 1), the rest pass, and
    # the runs without `--format json` print the plain-text report
    text = Path(__file__).resolve().parent.parent.joinpath("README.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines()]
    assert all(argv[0] == "actionpairs" for argv in lines)
    codes = []
    for argv in lines:
        codes.append(cli.main(argv[1:]))
        out = capsys.readouterr().out
        if "json" not in argv:
            assert out.startswith("schema: v1\ncommand: ")
            assert "\n  " in out          # nested blocks are indented
    assert codes == [cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_PASS,
                     cli.EXIT_PASS, cli.EXIT_PASS]
