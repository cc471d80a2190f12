"""ASCII rendering of the paper's figures.

Matplotlib is deliberately not a dependency; every figure in the paper is
a distribution plot, a CDF, or a shaded panel, all of which render
legibly as text.  These renderers power ``StudyReport.render_figures()``
and the CLI's ``analyze --figures`` flag.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.binning import Series

__all__ = ["ascii_plot", "ascii_cdf", "ascii_panel", "ascii_bars"]


def ascii_plot(
    series: list[Series],
    width: int = 72,
    height: int = 20,
    logx: bool = True,
    logy: bool = True,
    title: str = "",
) -> str:
    """Scatter one or more (x, y) series on a character grid.

    Each series gets its own glyph; axes are annotated with min/max.
    """
    glyphs = "ox+*#@%&"
    xs = np.concatenate([s.x for s in series])
    ys = np.concatenate([s.y for s in series])
    positive = (xs > 0) & (ys > 0) if (logx or logy) else np.ones(len(xs), bool)
    if not positive.any():
        return f"{title}\n(no positive data to plot)"
    x_lo, x_hi = xs[positive].min(), xs[positive].max()
    y_lo, y_hi = ys[positive].min(), ys[positive].max()

    def x_pos(x: float) -> int:
        if logx:
            span = math.log(x_hi / x_lo) or 1.0
            frac = math.log(max(x, x_lo) / x_lo) / span
        else:
            frac = (x - x_lo) / ((x_hi - x_lo) or 1.0)
        return min(int(frac * (width - 1)), width - 1)

    def y_pos(y: float) -> int:
        if logy:
            span = math.log(y_hi / y_lo) or 1.0
            frac = math.log(max(y, y_lo) / y_lo) / span
        else:
            frac = (y - y_lo) / ((y_hi - y_lo) or 1.0)
        return min(int(frac * (height - 1)), height - 1)

    grid = [[" "] * width for _ in range(height)]
    for index, item in enumerate(series):
        glyph = glyphs[index % len(glyphs)]
        for x, y in zip(item.x, item.y):
            if (logx and x <= 0) or (logy and y <= 0):
                continue
            row = height - 1 - y_pos(float(y))
            grid[row][x_pos(float(x))] = glyph

    lines = []
    if title:
        lines.append(title)
    lines.append(f"y: {y_lo:.3g} .. {y_hi:.3g}" + (" (log)" if logy else ""))
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(
        f" x: {x_lo:.3g} .. {x_hi:.3g}" + (" (log)" if logx else "")
    )
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={s.label}" for i, s in enumerate(series)
    )
    lines.append(f" {legend}")
    return "\n".join(lines)


def ascii_cdf(series: list[Series], width: int = 72, height: int = 16, title: str = "") -> str:
    """CDF curves: linear y in [0, 1], log x."""
    out = []
    if title:
        out.append(title)
    body = ascii_plot(
        series, width=width, height=height, logx=True, logy=False
    )
    out.append(body if not title else body)
    return "\n".join(out)


def ascii_bars(
    labels: list[str],
    values: list[float],
    width: int = 50,
    title: str = "",
    overlay: list[float] | None = None,
) -> str:
    """Horizontal bar chart; optional overlay values shown as markers."""
    if not values:
        return title
    peak = max(max(values), max(overlay) if overlay else 0.0, 1e-12)
    lines = [title] if title else []
    for i, (label, value) in enumerate(zip(labels, values)):
        bar = int(round(value / peak * width))
        row = "#" * bar
        if overlay is not None:
            pos = min(int(round(overlay[i] / peak * width)), width - 1)
            row = row.ljust(width)
            row = row[:pos] + "|" + row[pos + 1 :]
        lines.append(f"{label:<22} {row} {value:,.0f}")
    return "\n".join(lines)


def ascii_panel(
    matrix: np.ndarray, width: int = 72, title: str = ""
) -> str:
    """Figure 12-style shaded panel: rows = days, columns = users.

    The matrix is (users, days); users should be pre-sorted.  Intensity
    maps to a character ramp (dark = more hours).
    """
    ramp = " .:-=+*#%@"
    users, days = matrix.shape
    lines = [title] if title else []
    # Downsample users onto the requested width.
    bins = np.linspace(0, users, width + 1).astype(int)
    for day in range(days):
        cells = []
        for i in range(width):
            chunk = matrix[bins[i] : bins[i + 1], day]
            mean = float(chunk.mean()) if len(chunk) else 0.0
            level = min(int(mean / 24.0 * (len(ramp) - 1) * 4), len(ramp) - 1)
            cells.append(ramp[level])
        lines.append(f"day {day + 1} |" + "".join(cells) + "|")
    lines.append(" " * 6 + "(users sorted by day-1 hours; darker = more play)")
    return "\n".join(lines)
