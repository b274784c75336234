"""Standalone SVG rendering of power tables.

One panel per rate exponent, rejection frequency against tau, with the
level alpha drawn as a horizontal reference.  Empirical series are
dotted/dashed per sample size; the asymptotic power curve is drawn solid
and only for series whose cells sit on the detection threshold.
"""

from html import escape

from .harness import PowerTable

_COLORS = ("green", "blue", "darkorange", "purple", "crimson", "teal")
_EMPIRICAL_DASHES = ("2,4", "8,4", "10,4,2,4", "1,3")
_PANEL_WIDTH = 380
_PANEL_HEIGHT = 300
_COLUMNS = 2


def _fmt(x: float) -> str:
    return format(x, ".2f")


class _Panel:
    """Maps (tau, frequency) to pixel coordinates inside one panel box."""

    def __init__(self, x0, y0, tau_min, tau_max):
        self.left = x0 + 52
        self.top = y0 + 30
        self.right = x0 + _PANEL_WIDTH - 14
        self.bottom = y0 + _PANEL_HEIGHT - 40
        if tau_max <= tau_min:
            tau_min, tau_max = tau_min - 0.5, tau_max + 0.5
        self.tau_min = tau_min
        self.tau_max = tau_max

    def x(self, tau: float) -> float:
        span = self.tau_max - self.tau_min
        frac = (tau - self.tau_min) / span
        return self.left + frac * (self.right - self.left)

    def y(self, freq: float) -> float:
        return self.bottom - freq * (self.bottom - self.top)


def _panel_frame(panel, ell, alpha, parts):
    parts.append(f'<rect x="{_fmt(panel.left)}" y="{_fmt(panel.top)}" '
                 f'width="{_fmt(panel.right - panel.left)}" '
                 f'height="{_fmt(panel.bottom - panel.top)}" '
                 'fill="none" stroke="black" stroke-width="1"/>')
    parts.append(f'<text x="{_fmt((panel.left + panel.right) / 2)}" '
                 f'y="{_fmt(panel.top - 10)}" text-anchor="middle" '
                 f'font-size="14">ell = {ell}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = panel.y(frac)
        parts.append(f'<line x1="{_fmt(panel.left - 4)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(panel.left)}" y2="{_fmt(y)}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(panel.left - 7)}" y="{_fmt(y + 4)}" '
                     f'text-anchor="end" font-size="11">{frac:g}</text>')
    ticks = 4
    for i in range(ticks + 1):
        tau = panel.tau_min + i * (panel.tau_max - panel.tau_min) / ticks
        x = panel.x(tau)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(panel.bottom)}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(panel.bottom + 4)}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(panel.bottom + 16)}" '
                     f'text-anchor="middle" font-size="11">{tau:g}</text>')
    parts.append(f'<text x="{_fmt((panel.left + panel.right) / 2)}" '
                 f'y="{_fmt(panel.bottom + 30)}" text-anchor="middle" '
                 'font-size="12">tau</text>')
    y_alpha = panel.y(alpha)
    parts.append(f'<line x1="{_fmt(panel.left)}" y1="{_fmt(y_alpha)}" '
                 f'x2="{_fmt(panel.right)}" y2="{_fmt(y_alpha)}" '
                 'stroke="gray" stroke-width="1" stroke-dasharray="4,3"/>')
    parts.append(f'<text x="{_fmt(panel.right - 4)}" '
                 f'y="{_fmt(y_alpha - 4)}" text-anchor="end" font-size="10" '
                 f'fill="gray">alpha = {alpha:g}</text>')


def emit_svg(table: PowerTable, alpha: float = 0.05) -> str:
    """Render a power table as a standalone SVG 1.1 document, with the
    level alpha drawn in every panel."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    rows = table.rows
    if not rows:
        raise ValueError("cannot plot an empty table")
    ells = sorted({r.ell for r in rows})
    tests = list(dict.fromkeys(r.test for r in rows))
    sizes = sorted({r.n for r in rows})
    tau_min = min(r.tau for r in rows)
    tau_max = max(r.tau for r in rows)
    color = {t: _COLORS[i % len(_COLORS)] for i, t in enumerate(tests)}
    dash = {n: _EMPIRICAL_DASHES[i % len(_EMPIRICAL_DASHES)]
            for i, n in enumerate(sizes)}
    # one stable pass in tau order; every n repeats the asymptotic curve
    # of its (ell, test), so the first row at each tau gives it
    series, curves = {}, {}
    for r in sorted(rows, key=lambda r: r.tau):
        series.setdefault((r.ell, r.test, r.n), []).append(r)
        if not r.trivial:
            curves.setdefault((r.ell, r.test), {}).setdefault(r.tau, r.asym_power)

    legend_height = 24 + 16 * len(tests)
    grid_cols = min(_COLUMNS, len(ells))
    grid_rows = (len(ells) + grid_cols - 1) // grid_cols
    width = grid_cols * _PANEL_WIDTH + 20
    height = grid_rows * _PANEL_HEIGHT + legend_height + 20

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    y_leg = 18
    parts.append(f'<text x="10" y="{y_leg}" font-size="12">'
                 'empirical: dotted/dashed by sample size; '
                 'asymptotic power: solid</text>')
    for i, t in enumerate(tests):
        y = y_leg + 16 * (i + 1)
        parts.append(f'<line x1="10" y1="{y - 4}" x2="40" y2="{y - 4}" '
                     f'stroke="{color[t]}" stroke-width="2"/>')
        label = escape(t, quote=False) + "".join(
            f", n={n} ({dash[n]})" for n in sizes)
        parts.append(f'<text x="46" y="{y}" font-size="12">{label}</text>')

    for pi, ell in enumerate(ells):
        px = 10 + (pi % grid_cols) * _PANEL_WIDTH
        py = legend_height + (pi // grid_cols) * _PANEL_HEIGHT
        panel = _Panel(px, py, tau_min, tau_max)
        _panel_frame(panel, ell, alpha, parts)
        for t in tests:
            stroke = color[t]
            for n in sizes:
                points = series.get((ell, t, n), [])
                coords = " ".join(f"{_fmt(panel.x(r.tau))},"
                                  f"{_fmt(panel.y(r.reject_freq))}"
                                  for r in points)
                if len(points) > 1:
                    parts.append(f'<polyline points="{coords}" fill="none" '
                                 f'stroke="{stroke}" stroke-width="1.5" '
                                 f'stroke-dasharray="{dash[n]}"/>')
                for r in points:
                    parts.append(f'<circle cx="{_fmt(panel.x(r.tau))}" '
                                 f'cy="{_fmt(panel.y(r.reject_freq))}" '
                                 f'r="2.5" fill="{stroke}"/>')
            curve = list(curves.get((ell, t), {}).items())
            coords = " ".join(f"{_fmt(panel.x(tau))},{_fmt(panel.y(pw))}"
                              for tau, pw in curve)
            if len(curve) > 1:
                parts.append(f'<polyline points="{coords}" fill="none" '
                             f'stroke="{stroke}" stroke-width="2"/>')
            elif curve:
                tau, pw = curve[0]
                parts.append(f'<circle cx="{_fmt(panel.x(tau))}" '
                             f'cy="{_fmt(panel.y(pw))}" r="2" '
                             f'fill="none" stroke="{stroke}"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
