"""The acceptance criteria's figures in a ``pytest -rP`` log, as one JSON object.

Each criterion in ``test_acceptance.py`` prints lines of the form
``criterion NN [label]: key=value, key=value``, and ``-rP`` keeps them in
the log of a passing run.  This reads them into

    {"figures": {"NN [label]": {"key": value, ...}, ...},
     "seconds": {"NN [label]": value, ...}}

with sorted keys.  The wall-clock ``seconds=`` figures are kept apart, so two
logs of the same code compare equal on ``figures``.

    python tests/criteria.py test_output.txt > criteria.json
"""

from __future__ import annotations

import json
import re
import sys

_LINE = re.compile(r"^criterion (\d\d) \[([^\]]*)\]: (.*)$")


def _value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(lines) -> dict:
    """Figures and seconds of every criterion line in ``lines``; a label
    printed twice with different figures is an error."""
    figures, seconds = {}, {}
    for line in lines:
        match = _LINE.match(line.rstrip("\n"))
        if not match:
            continue
        label = f"{match[1]} [{match[2]}]"
        found = {}
        for item in match[3].split(", "):
            key, _, value = item.partition("=")
            found[key] = _value(value)
        if "seconds" in found:
            seconds[label] = found.pop("seconds")
        if figures.setdefault(label, found) != found:
            raise ValueError(f"criterion {label} is printed with two sets of figures")
    return {"figures": figures, "seconds": seconds}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: criteria.py LOG", file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as log:
        print(json.dumps(parse(log), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
