"""EXPERIMENTS.md's quoted numbers equal the committed tables.

Every measured value in the "Headline claims" table, the range the
Figure 6a section quotes, the "Ours" columns of Table 5 and the numbers
the Table 4 and Table 6 sections quote must equal what the committed
full-size tables under ``benchmarks/results/`` say,
so a hand-copied number cannot drift from the regenerated one
unnoticed.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

#: EXPERIMENTS.md claim -> the ``headline.txt`` metric it quotes.
HEADLINE_ROWS = {
    "FUSION speedup vs SCRATCH (geomean)":
        "FUSION speedup vs SCRATCH (geomean)",
    "SHARED speedup on the DMA-bound subset (FFT/DISP/TRACK/HIST)":
        "SHARED speedup, DMA-bound subset",
    "SHARED slowdown on small-WSet subset (ADPCM/SUSAN/FILT)":
        "SHARED slowdown, small-WSet subset",
    "FUSION energy saving (geomean)":
        "FUSION energy saving vs SCRATCH (geomean)",
    "FUSION/SHARED energy saving, FFT": "FUSION energy saving, FFT",
    "FUSION/SHARED energy saving, DISP": "FUSION energy saving, DISP",
}

#: The claim quoted from Figure 6a/6b rather than ``headline.txt``.
ENERGY_ROW = ("FUSION energy +10 % on HIST/SUSAN/FILT while improving "
              "performance")


def _claims():
    """``{claim: measured cell}`` from the Headline claims table."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Headline claims", 1)[1].split("\n## ", 1)[0]
    claims = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] not in ("Claim", "---"):
            claims[cells[0]] = cells[2]
    return claims


def _table(name):
    """Data rows of a committed table, split on runs of spaces."""
    lines = (RESULTS / name).read_text().splitlines()
    return [re.split(r"\s{2,}", line.strip()) for line in lines[3:]
            if line.strip()]


def test_every_headline_claim_is_checked():
    assert set(_claims()) == set(HEADLINE_ROWS) | {ENERGY_ROW}


def test_headline_claims_quote_headline_table():
    measured = {row[0]: row[2] for row in _table("headline.txt")}
    claims = _claims()
    for claim, metric in HEADLINE_ROWS.items():
        assert claims[claim] == measured[metric], claim


def test_energy_claim_quotes_figure6():
    energy = {row[0]: float(row[2]) for row in _table("figure6a.txt")
              if row[1] == "FUSION"}
    cycles = {row[0]: float(row[3]) for row in _table("figure6b.txt")}
    names = ("HIST.", "SUSAN", "FILT.")
    expected = "{} (cycles {:.2f}x–{:.2f}x)".format(
        " / ".join("+{:.0f} %".format((energy[name] - 1) * 100)
                   for name in names),
        min(cycles[name] for name in names),
        max(cycles[name] for name in names))
    assert _claims()[ENERGY_ROW] == expected


def test_figure6a_prose_quotes_the_small_wset_range():
    """The Figure 6a section's "within X–Y % of SCRATCH on the
    small-WSet trio" spans FUSION's ADPCM/SUSAN/FILT energy totals."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Figure 6a", 1)[1].split("\n## ", 1)[0]
    quoted = re.search(r"within (\d+)–(\d+) % of SCRATCH on the\s+"
                       r"small-WSet trio", section)
    assert quoted, "Figure 6a section no longer quotes the range"
    excess = [round((float(row[2]) - 1) * 100)
              for row in _table("figure6a.txt")
              if row[1] == "FUSION" and row[0] in ("ADPCM", "SUSAN", "FILT.")]
    assert len(excess) == 3
    assert (int(quoted.group(1)), int(quoted.group(2))) == \
        (min(excess), max(excess))


#: EXPERIMENTS.md Table 5 row -> the ``table5.txt`` column it quotes.
TABLE5_ROWS = {"#FWD blocks": 1, "AXC cache energy saved": 2,
               "AXC link energy saved": 3}

#: EXPERIMENTS.md Table 5 "Ours" column -> the ``table5.txt`` row.
TABLE5_COLUMNS = {"Ours FFT": "FFT", "Ours TRACK": "TRACK."}


def test_table5_ours_columns_quote_table5():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Table 5", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    header, quoted = rows[0], {row[0]: row for row in rows[2:]}
    assert set(quoted) == set(TABLE5_ROWS)
    measured = {row[0]: row for row in _table("table5.txt")}
    for column, benchmark in TABLE5_COLUMNS.items():
        index = header.index(column)
        for label, table_column in TABLE5_ROWS.items():
            assert quoted[label][index] == \
                measured[benchmark][table_column], (column, label)


def _section(title):
    text = (ROOT / "EXPERIMENTS.md").read_text()
    return text.split("## " + title, 1)[1].split("\n## ", 1)[0]


def test_table4_measured_column_quotes_table4():
    """The WT/WB ratio and dirty-block ranges span ``table4.txt``'s
    columns, and the prose's FFT ratio is its FFT row."""
    section = _section("Table 4")
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    quoted = {row[0]: row[2] for row in rows[2:]}
    table = [row for row in _table("table4.txt")
             if not row[0].startswith("note:")]
    ratios = [float(row[4]) for row in table]
    dirty = [float(row[3]) for row in table]
    assert quoted == {
        "WT/WB flit ratio": "{:.1f}x–{:.1f}x".format(min(ratios),
                                                    max(ratios)),
        "% dirty blocks": "{:.0f}–{:.0f} %".format(min(dirty), max(dirty)),
    }
    fft = re.search(r"FFT is\s+the closest call \(([\d.]+)x\)", section)
    assert fft, "Table 4 section no longer quotes FFT's ratio"
    assert fft.group(1) == {row[0]: row[4] for row in table}["FFT"]


def _count(value):
    """A lookup count the way EXPERIMENTS.md writes it (28704 -> 28.7K)."""
    return "{:.1f}K".format(value / 1000) if value >= 1000 else str(value)


def test_table6_ranges_quote_table6():
    """The AX-TLB and AX-RMAP ranges span ``table6.txt``'s columns."""
    section = _section("Table 6")
    table = [row for row in _table("table6.txt")
             if not row[0].startswith("note:")]
    for column, pattern in (
            (1, r"track L1X misses \((\S+)–(\S+); paper"),
            (2, r"rarer in aggregate \((\S+)–(\S+); paper")):
        quoted = re.search(pattern, section)
        assert quoted, "Table 6 section no longer quotes " + pattern
        counts = [int(row[column]) for row in table]
        assert quoted.groups() == (_count(min(counts)),
                                   _count(max(counts))), pattern
