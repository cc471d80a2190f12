"""Reproduction of "Condensing Steam: Distilling the Diversity of Gamer
Behavior" (O'Neill, Vaziripour, Wu, Zappala — IMC 2016).

The package is organized bottom-up:

- :mod:`repro.steamid` — SteamID ID-space layout.
- :mod:`repro.simworld` — calibrated synthetic Steam universe generator
  (the substitute for the live 2013 Steam network).
- :mod:`repro.steamapi` — simulated Steam Web API (in-process and HTTP).
- :mod:`repro.crawler` — the measurement apparatus: rate-limited,
  checkpointed crawler over the API.
- :mod:`repro.store` — columnar dataset container and IO.
- :mod:`repro.tailfit` — heavy-tailed distribution fitting/classification
  (reimplementation of the ``powerlaw`` methodology used by the paper).
- :mod:`repro.core` — the paper's analyses: every table and figure.

Quickstart::

    from repro import SteamStudy
    study = SteamStudy.generate(n_users=50_000, seed=7)
    report = study.run()
    print(report.render())
"""

from repro.core.study import SteamStudy
from repro.simworld.config import WorldConfig
from repro.simworld.world import SteamWorld
from repro.store.dataset import SteamDataset

__version__ = "1.0.0"

__all__ = [
    "SteamStudy",
    "SteamWorld",
    "SteamDataset",
    "WorldConfig",
    "__version__",
]
