"""README tests: the documented public surface exists in the package."""

import re
from pathlib import Path

import minreach

README = Path(__file__).resolve().parents[1] / "README.md"


def entry_point_names():
    """Backticked names in the first column of README's "Main entry points"
    table, call signatures stripped and ``name1/2/3`` expanded."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("Main entry points:")
    rows = []
    for line in lines[start + 1 :]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    names = []
    for row in rows[2:]:  # skip the header and its separator
        first_cell = row.split("|")[1]
        for token in re.findall(r"`([^`]+)`", first_cell):
            token = token.split("(")[0]
            stem, *suffixes = token.split("/")
            names.append(stem)
            names.extend(stem[: -len(s)] + s for s in suffixes)
    return names


def test_entry_point_names_parse():
    names = entry_point_names()
    assert len(names) >= 20
    assert {"LtiSystem", "build_lemma1", "build_lemma2", "build_lemma3"} <= set(names)
    assert all(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) for name in names)


def test_every_entry_point_is_exported():
    missing = [
        name
        for name in entry_point_names()
        if not hasattr(minreach, name) or name not in minreach.__all__
    ]
    assert missing == []
