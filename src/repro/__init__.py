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

from __future__ import annotations

import importlib

__version__ = "1.0.0"

#: Public name -> defining module, imported on first access (PEP 562),
#: so that ``import repro.crawler`` does not pay for the analyses.
_EXPORTS = {
    "SteamStudy": "repro.core.study",
    "SteamWorld": "repro.simworld.world",
    "SteamDataset": "repro.store.dataset",
    "WorldConfig": "repro.simworld.config",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
