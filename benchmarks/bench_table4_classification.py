"""Table 4: heavy-tail classification of every distribution."""

from repro import constants
from repro.core.distributions import Table4, classify_row, table4_row_names

#: Paper labels for the rows we regenerate (first / second snapshot).
PAPER = {
    "account market values": "long-tailed",
    "account market values (second snapshot)": "long-tailed",
    "total playtime": "lognormal",
    "total playtime (second snapshot)": "lognormal",
    "two-week playtime": "truncated power law",
    "two-week playtime (second snapshot)": "truncated power law",
    "game ownership": "long-tailed",
    "game ownership (second snapshot)": "long-tailed",
    "played game ownership": "long-tailed",
    "played game ownership (second snapshot)": "long-tailed",
    "group size": "heavy-tailed",
    "group membership per user": "long-tailed",
}

HEAVY_FAMILY = {
    constants.CLASS_HEAVY,
    constants.CLASS_LONG,
    constants.CLASS_LOGNORMAL,
    constants.CLASS_TPL,
}


def classify_table(dataset, max_tail):
    """Every Table 4 row, one row-seeded fit each, as the study runs them."""
    rows = {}
    for name in table4_row_names(dataset):
        result = classify_row(dataset, name, max_tail=max_tail)
        if result is not None:
            rows[name] = result
    return Table4(rows=rows)


def test_table4_classification(benchmark, bench_dataset, record):
    table = benchmark.pedantic(
        classify_table,
        args=(bench_dataset,),
        kwargs={"max_tail": 40_000},
        rounds=1,
        iterations=1,
    )
    labels = table.labels()

    lines = ["Table 4 — classifications (measured / paper)"]
    matches = 0
    comparable = 0
    for name, label in labels.items():
        paper = PAPER.get(name, "(yearly cut: long-tailed/lognormal)")
        lines.append(f"{name:<45} {label:<22} / {paper}")
        if name in PAPER:
            comparable += 1
            if label == PAPER[name]:
                matches += 1
    lines.append(f"exact label matches: {matches}/{comparable}")
    lines.append(table.render())
    record("table4_classification", lines)

    # The paper's headline: everything heavy-tailed, nothing pure PL.
    assert "power law" not in set(labels.values())
    for name in (
        "account market values",
        "game ownership",
        "total playtime",
        "two-week playtime",
        "group size",
    ):
        assert labels[name] in HEAVY_FAMILY, (name, labels[name])
    # Section 8: snapshot-2 keeps each distribution in the same family.
    assert labels["game ownership (second snapshot)"] in HEAVY_FAMILY
    assert labels["total playtime (second snapshot)"] in HEAVY_FAMILY
