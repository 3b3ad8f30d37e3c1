"""The acceptance criteria's figures in a ``pytest -rP`` log, as one JSON object.

Each criterion in ``test_acceptance.py`` prints lines of the form
``criterion NN [label]: key=value, key=value``, and ``-rP`` keeps them in
the log of a passing run.  This reads them into

    {"figures": {"NN [label]": {"key": value, ...}, ...},
     "seconds": {"NN [label]": value, ...}}

with sorted keys.  The wall-clock ``seconds=`` figures are kept apart, so two
logs of the same code compare equal on ``figures``.

    python tests/criteria.py test_output.txt > criteria.json
    python tests/criteria.py CHANGE_LOG --against PARENT_LOG

With ``--against`` it prints instead one line per criterion label whose
figures differ between the two logs or that one log lacks, and exits 1 if
any difference is not rank noise.  Criterion 09's ``spearman`` figures of
the paraproduct families A1-A4 are rank noise: their samples' ratios agree
across levels to rounding, so rounding alone orders them.
"""

from __future__ import annotations

import json
import re
import sys

_LINE = re.compile(r"^criterion (\d\d) \[([^\]]*)\]: (.*)$")
# (label, key) of the figures that only rounding decides
_RANK_NOISE = {(f"09 [A{i}]", "spearman") for i in range(1, 5)}


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


def differences(change: dict, parent: dict):
    """``(label, text, noise)`` per label of two ``figures`` maps whose
    figures differ or that one map lacks, in label order; ``noise`` when
    every differing figure is rank noise."""
    for label in sorted(change.keys() | parent.keys()):
        if label not in parent or label not in change:
            side = "change" if label in change else "parent"
            yield label, f"only in the {side} log", False
            continue
        now, was = change[label], parent[label]
        keys = sorted(k for k in now.keys() | was.keys() if now.get(k) != was.get(k))
        if keys:
            text = "; ".join(f"{k} {was.get(k)} -> {now.get(k)}" for k in keys)
            yield label, text, all((label, k) in _RANK_NOISE for k in keys)


def _figures(path: str) -> dict:
    with open(path, encoding="utf-8") as log:
        return parse(log)["figures"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[1] == "--against":
        failed = False
        for label, text, noise in differences(_figures(args[0]), _figures(args[2])):
            print(f"{label}: {text}{' (rank noise)' if noise else ''}")
            failed |= not noise
        return int(failed)
    if len(args) != 1:
        print("usage: criteria.py LOG [--against PARENT_LOG]", file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as log:
        print(json.dumps(parse(log), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
