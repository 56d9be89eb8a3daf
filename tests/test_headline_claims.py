"""EXPERIMENTS.md's "Headline claims" table quotes the committed tables.

Every measured value in that table, and the range the Figure 6a section
quotes, must equal what the committed full-size tables under
``benchmarks/results/`` say, so a hand-copied number cannot drift from
the regenerated one unnoticed.
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
