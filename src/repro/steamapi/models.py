"""Typed view of the storefront payload, plus the group id base.

The service itself speaks plain JSON-shaped dicts (like the real Steam
Web API); :class:`AppDetails` is the crawler-side parse target for
``appdetails`` responses.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AppDetails", "GROUP_ID_BASE"]

#: Offset added to dense group indices to form Steam-style group ids.
GROUP_ID_BASE = 103582791429521408


@dataclass(frozen=True)
class AppDetails:
    """Parsed storefront ``appdetails`` payload."""

    appid: int
    app_type: str
    genres: tuple[str, ...]
    price_cents: int
    multiplayer: bool
    metacritic: int | None
    release_day: int

    @classmethod
    def from_json(cls, appid: int, data: dict) -> "AppDetails":
        body = data["data"]
        categories = {c["description"] for c in body.get("categories", [])}
        return cls(
            appid=appid,
            app_type=body["type"],
            genres=tuple(g["description"] for g in body.get("genres", [])),
            price_cents=int(
                body.get("price_overview", {}).get("final", 0)
            ),
            multiplayer="Multi-player" in categories,
            metacritic=body.get("metacritic", {}).get("score"),
            release_day=int(body.get("release_date", {}).get("day_index", -1)),
        )

