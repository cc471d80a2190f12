"""Simulated Steam Web API.

Faithful endpoint semantics of the real API as the paper used it in 2013:

- ``GetPlayerSummaries`` — up to 100 SteamIDs per call (this is why the
  paper's profile sweep took three weeks while the per-user detail crawl
  took six months),
- ``GetFriendList`` / ``GetOwnedGames`` / ``GetUserGroupList`` — one
  SteamID per call,
- ``GetAppList`` and the storefront ``appdetails`` endpoint (one app per
  call, which the paper politely rate-limited to one request per two
  seconds),
- ``GetGlobalAchievementPercentagesForApp``.

Responses are JSON-shaped dicts; errors carry HTTP-like status codes.
Each API key is token-bucket rate limited.  Two transports expose the
same service: in-process (fast, for large studies) and a real HTTP
server/client over localhost (stdlib only), so the crawler exercises a
genuine network path.
"""

from repro.steamapi.errors import (
    ApiError,
    BadRequestError,
    MalformedResponseError,
    NotFoundError,
    RateLimitedError,
    RequestTimeoutError,
    UnauthorizedError,
)
from repro.steamapi.faults import FaultInjectingTransport, FaultSpec
from repro.steamapi.ratelimit import TokenBucket
from repro.steamapi.service import SteamApiService
from repro.steamapi.transport import InProcessTransport, Transport

__all__ = [
    "SteamApiService",
    "Transport",
    "InProcessTransport",
    "TokenBucket",
    "ApiError",
    "BadRequestError",
    "NotFoundError",
    "RateLimitedError",
    "RequestTimeoutError",
    "MalformedResponseError",
    "UnauthorizedError",
    "FaultSpec",
    "FaultInjectingTransport",
]
