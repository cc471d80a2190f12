"""The paper's methodology end to end: crawl a live API, then analyze.

This example stands up the simulated Steam Web API as a real HTTP server
on localhost, runs the four-phase crawler against it (ID-space sweep in
batches of 100, per-user details, storefront catalog, achievement
percentages), verifies the crawled dataset matches the ground truth, and
prints the headline analyses.

Run:  python examples/crawl_measurement.py [n_users]
"""

import sys
import time

import numpy as np

from repro import SteamStudy
from repro.crawler.runner import run_full_crawl
from repro.steamapi.http_client import HttpTransport
from repro.steamapi.http_server import serve
from repro.steamapi.service import SteamApiService


def main() -> None:
    n_users = int(sys.argv[1]) if len(sys.argv) > 1 else 3_000

    study = SteamStudy.generate(n_users=n_users, seed=42)
    truth = study.dataset
    service = SteamApiService.from_world(study.world)

    t0 = time.time()
    with serve(service) as server, HttpTransport(server.base_url) as transport:
        print(f"API server listening on {server.base_url}")
        result = run_full_crawl(transport, snapshot2=truth.snapshot2)
    crawled = result.dataset
    elapsed = time.time() - t0
    print(
        f"crawled {crawled.n_users:,} accounts over HTTP in {elapsed:.1f}s "
        f"({result.requests_made:,} API requests)"
    )

    # The crawler must reconstruct the ground truth exactly.
    checks = {
        "accounts": crawled.n_users == truth.n_users,
        "friendships": crawled.friends.n_edges == truth.friends.n_edges,
        "owned copies": crawled.library.owned.nnz == truth.library.owned.nnz,
        "playtime total": (
            crawled.library.user_total_min().sum()
            == truth.library.user_total_min().sum()
        ),
        "degree distribution": np.array_equal(
            np.sort(crawled.friend_counts()), np.sort(truth.friend_counts())
        ),
    }
    for name, ok in checks.items():
        print(f"  reconstruction check [{name}]: {'OK' if ok else 'MISMATCH'}")

    # Density profile of the ID sweep (Section 3.1).
    profile = result.sweep.density_profile(n_bins=10)
    cells = " ".join(f"{x:.2f}" for x in profile)
    print(f"ID-space density profile (10 bins): {cells}")

    report = SteamStudy.from_dataset(crawled).run(
        include_table4=False, include_week_panel=False
    )
    print(report.fig6_playtime_cdf.render())
    print(report.fig10_multiplayer.render())
    print(report.fig11_homophily.render())


if __name__ == "__main__":
    main()
