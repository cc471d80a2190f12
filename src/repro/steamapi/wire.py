"""HTTP/1.1 message framing shared by the API client and server.

Both ends read a start line plus a header block from a buffered binary
reader under the standard library's ceilings: lines of at most
:data:`MAX_LINE` bytes and at most :data:`MAX_HEADERS` header lines.
Anything that breaks the framing raises :class:`FramingError`, whose
``status`` is the 4xx a server answers it with.

Only what the Steam API wire uses is framed: ``Content-Length``
bodies, or a body that runs to EOF when the length is absent.  There
is no chunked coding and no ``Expect: 100-continue``.
"""

from __future__ import annotations

import time

__all__ = [
    "FramingError",
    "Headers",
    "MAX_HEADERS",
    "MAX_LINE",
    "RemoteDisconnected",
    "http_date",
    "parse_request_line",
    "parse_status_line",
    "read_body",
    "read_headers",
    "read_line",
]

#: Longest start or header line read, CRLF included.
MAX_LINE = 65536
#: Most header lines in one message.
MAX_HEADERS = 100

_BLANK = (b"\r\n", b"\n", b"")
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class FramingError(ValueError):
    """A message that breaks HTTP/1.1 framing."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class RemoteDisconnected(ConnectionResetError):
    """The peer closed the connection before sending a status line."""


class Headers:
    """Header lines in arrival order.

    Lookups ignore case and the first of repeated names wins; ``len``
    and :meth:`items` count every line, repeats included.
    """

    __slots__ = ("_lines", "_first")

    def __init__(self, lines: list[tuple[str, str]]) -> None:
        self._lines = lines
        first: dict[str, str] = {}
        for name, value in lines:
            first.setdefault(name.lower(), value)
        self._first = first

    def get(self, name: str, default: str | None = None) -> str | None:
        return self._first.get(name.lower(), default)

    def items(self) -> list[tuple[str, str]]:
        return list(self._lines)

    def __len__(self) -> int:
        return len(self._lines)


def read_line(rfile, status: int = 400) -> bytes:
    """One line, CRLF included; ``b""`` at EOF.  A line longer than
    :data:`MAX_LINE` raises :class:`FramingError` with ``status``."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise FramingError(f"line longer than {MAX_LINE} bytes", status)
    return line


def read_headers(rfile) -> Headers:
    """The header block up to its blank line (or EOF)."""
    lines: list[tuple[str, str]] = []
    while True:
        line = read_line(rfile, 431)
        if line in _BLANK:
            return Headers(lines)
        if len(lines) == MAX_HEADERS:
            raise FramingError(f"more than {MAX_HEADERS} headers", 431)
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name.strip() or name[0] in " \t":
            raise FramingError(f"malformed header line {line[:64]!r}")
        lines.append((name, value.strip()))


def parse_request_line(
    line: str,
) -> tuple[str, str, str, tuple[int, int]] | None:
    """``(method, target, version, (major, minor))`` of a decoded
    request line; ``None`` for a blank one.  A two-word line is an
    HTTP/0.9 ``GET``."""
    words = line.split()
    if not words:
        return None
    version, number = "HTTP/0.9", (0, 9)
    if len(words) >= 3:
        version = words[-1]
        digits = version[5:].split(".")
        if (
            not version.startswith("HTTP/")
            or len(digits) != 2
            or not all(
                d.isascii() and d.isdigit() and len(d) <= 10 for d in digits
            )
        ):
            raise FramingError(f"bad request version {version!r}")
        number = int(digits[0]), int(digits[1])
        if number >= (2, 0):
            raise FramingError(f"unsupported HTTP version {version!r}", 505)
    if not 2 <= len(words) <= 3:
        raise FramingError(f"bad request line {line[:64]!r}")
    if len(words) == 2 and words[0] != "GET":
        raise FramingError(f"bad HTTP/0.9 request method {words[0]!r}")
    return words[0], words[1], version, number


def parse_status_line(line: bytes) -> tuple[bytes, int]:
    """``(version, status)`` of a response's status line."""
    version, _, rest = line.partition(b" ")
    code = rest[:3]
    if (
        not version.startswith(b"HTTP/")
        or len(code) != 3
        or not code.isdigit()
        or rest[3:4] not in (b" ", b"\r", b"\n", b"")
    ):
        raise FramingError(f"bad status line {line[:64]!r}")
    return version, int(code)


def read_body(rfile, headers: Headers) -> tuple[bytes, bool]:
    """The body and whether it ended at EOF (the connection is spent).

    With ``Content-Length`` exactly that many bytes are read; a short
    read raises :class:`FramingError`.  Without it the body runs to EOF.
    """
    length = headers.get("content-length")
    if length is None:
        return rfile.read(), True
    if not (length.isascii() and length.isdigit()):
        raise FramingError(f"bad Content-Length {length!r}")
    n = int(length)
    body = rfile.read(n)
    if len(body) < n:
        raise FramingError(f"body ended after {len(body)} of {n} bytes")
    return body, False


_date_cache = (0, "")


def http_date() -> str:
    """The current time as an IMF-fixdate, formatted once a second."""
    global _date_cache
    now = int(time.time())
    second, text = _date_cache
    if second != now:
        year, month, day, hh, mm, ss, wday = time.gmtime(now)[:7]
        text = (
            f"{_DAYS[wday]}, {day:02d} {_MONTHS[month]} {year} "
            f"{hh:02d}:{mm:02d}:{ss:02d} GMT"
        )
        _date_cache = (now, text)
    return text
