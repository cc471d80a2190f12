"""Regenerate every artifact of the reproduction in one run.

Produces, under ``--outdir`` (default ``artifacts/``):

- ``report.txt``       — the full text report (all tables/figures),
- ``figures_ascii.txt``— ASCII renderings of the figures,
- ``figures/``         — per-figure CSV data series,
- ``export/``          — plain-text dataset dumps (JSONL/CSV),
- ``dataset/``         — the dataset itself, as a column directory
                          (load it with ``repro.store.load_dataset``).

Run:  python scripts/run_all.py [--users N] [--seed S] [--outdir DIR]
"""

import argparse
import pathlib
import time

from repro import SteamStudy
from repro.core.figures_io import export_figure_data
from repro.store.export import export_dataset
from repro.store.io import save_dataset


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--users", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1603)
    parser.add_argument("--outdir", default="artifacts")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    study = SteamStudy.generate(n_users=args.users, seed=args.seed)
    print(f"[{time.time() - t0:6.1f}s] generated {args.users:,} accounts")

    report = study.run()
    print(f"[{time.time() - t0:6.1f}s] analyses complete")

    (outdir / "report.txt").write_text(report.render(), encoding="utf-8")
    (outdir / "figures_ascii.txt").write_text(
        report.render_figures(), encoding="utf-8"
    )
    export_figure_data(report, outdir / "figures")
    export_dataset(study.dataset, outdir / "export")
    save_dataset(study.dataset, outdir / "dataset")
    print(f"[{time.time() - t0:6.1f}s] artifacts written to {outdir}/")
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(outdir)}")


if __name__ == "__main__":
    main()
