"""EXPERIMENTS.md's Table-1 figures must match the checked-in artifact.

``benchmarks/out/table1.txt`` is what ``benchmarks/test_table1.py``
renders; the prose in EXPERIMENTS.md quotes it.  This test parses both
so the document cannot drift from the artifact again.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
TABLE1 = ROOT / "benchmarks" / "out" / "table1.txt"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"


def _table1():
    """(per-bug {name: (measured, paper)}, mean #Occur, largest graph)."""
    text = TABLE1.read_text()
    rows = {}
    for line in text.splitlines():
        cols = re.split(r"\s{2,}", line.strip())
        # data rows: name, bug type, MT, IR-Instr, #Instr, #Occur, paper
        if len(cols) >= 7 and cols[2] in ("Y", "N"):
            rows[cols[0]] = (int(cols[5]), int(cols[6]))
    mean = float(re.search(r"mean #Occur ([\d.]+)", text).group(1))
    largest = int(re.search(r"largest constraint graph (\d+) nodes",
                            text).group(1))
    return rows, mean, largest


def _table1_section():
    text = EXPERIMENTS.read_text()
    start = text.index("## Table 1")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def _resolve(short, names):
    """The unique workload whose dash-separated parts include all of
    ``short``'s (``php-2386`` -> ``php-2012-2386``)."""
    parts = set(short.split("-"))
    matches = [n for n in names if parts <= set(n.split("-"))]
    assert len(matches) == 1, (short, matches)
    return matches[0]


def test_table1_artifact_parses():
    rows, mean, largest = _table1()
    assert len(rows) == 13
    assert round(sum(m for m, _ in rows.values()) / len(rows), 1) == mean
    assert largest > 0


def test_mean_occurrences_match():
    _, mean, _ = _table1()
    doc = re.search(r"\| Mean #Occur \|[^|]*\| \*\*([\d.]+)\*\* \|",
                    _table1_section())
    assert doc is not None
    assert float(doc.group(1)) == mean


def test_per_bug_occurrences_match():
    rows, _, _ = _table1()
    section = _table1_section()
    listing = section[section.index("Per-bug #Occur"):]
    listing = listing[:listing.index(".  ")]
    pairs = re.findall(r"([A-Za-z0-9][\w-]*) (\d+)/(\d+)", listing)
    quoted = {}
    for short, measured, paper in pairs:
        quoted[_resolve(short, rows)] = (int(measured), int(paper))
    assert quoted == rows


def test_largest_graph_matches():
    _, _, largest = _table1()
    doc = re.search(r"\| Largest constraint graph \|[^|]*\| (\d+) nodes \|",
                    _table1_section())
    assert doc is not None
    assert int(doc.group(1)) == largest
    offline = re.search(r"Graphs ≤ (\d+) nodes", EXPERIMENTS.read_text())
    assert offline is not None
    assert int(offline.group(1)) == largest
