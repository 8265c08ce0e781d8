"""File formats: matrix JSON, CSV series, standalone SVG figures.

All numeric output is decimal with 17 significant digits, which round-trips
binary64 exactly; identical inputs therefore produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .numrange import SupportProfile
from .perturb import TrajectoryRecord

_CSV_BLOCK_ROWS = 16384  # rows formatted per write

__all__ = [
    "MatrixFileError",
    "format_float",
    "read_matrix",
    "write_matrix",
    "write_range_csv",
    "write_trajectory_csv",
    "render_range_svg",
]


class MatrixFileError(ValueError):
    """A matrix file failed to parse or violates the schema."""


def format_float(x) -> str:
    return format(float(x), ".17g")


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a matrix file: dim + row-major [re, im] pairs."""
    m = np.asarray(matrix, dtype=np.complex128)
    _write_json(path, {"dim": int(m.shape[0]), "entries": [[z.real, z.imag] for z in m.ravel()]})


def _write_json(path, doc: dict) -> None:
    """Indented JSON, sorted keys, trailing newline; numpy values go through ``tolist``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
        fh.write("\n")


def read_matrix(path) -> tuple[np.ndarray, dict]:
    """Read a matrix file; returns (matrix, metadata)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc

    if not isinstance(doc, dict):
        raise MatrixFileError(f"{path}: expected a JSON object at top level")
    try:
        dim = int(doc["dim"])
        entries = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFileError(f"{path}: missing or invalid 'dim'/'entries' fields") from exc
    if dim < 1:
        raise MatrixFileError(f"{path}: dim must be positive, got {dim}")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise MatrixFileError(
            f"{path}: expected {dim * dim} entries for dim {dim}, got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    try:
        parts = np.array(entries)
    except ValueError:  # ragged pairs
        parts = None
    if parts is None or parts.shape != (dim * dim, 2) or parts.dtype.kind not in "biuf":
        # strings, nulls, huge integers or malformed pairs: check entry by entry
        parts = np.array([_entry(path, k, pair) for k, pair in enumerate(entries)])
    parts = np.ascontiguousarray(parts, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(parts).all(axis=1))
    if len(bad):
        raise MatrixFileError(f"{path}: entry {bad[0]} is not finite")
    matrix = parts.view(np.complex128).reshape(dim, dim)
    meta = {k: doc[k] for k in ("label", "source") if k in doc}
    return matrix, meta


def _entry(path, k: int, pair) -> tuple[float, float]:
    """Entry ``k`` of a matrix file as (re, im), converted as ``float`` converts it."""
    not_pair = MatrixFileError(f"{path}: entry {k} is not a [re, im] pair of numbers")
    if not (isinstance(pair, list) and len(pair) == 2):
        raise not_pair
    try:
        re_part, im_part = float(pair[0]), float(pair[1])
    except (TypeError, ValueError, OverflowError) as exc:  # null, a list, "abc", 10**400
        raise not_pair from exc
    if not (np.isfinite(re_part) and np.isfinite(im_part)):
        raise MatrixFileError(f"{path}: entry {k} is not finite")
    return re_part, im_part


def write_range_csv(path, profile: SupportProfile) -> None:
    """Boundary sweep CSV: theta, h, re(z), im(z)."""
    z = profile.boundary_points
    _write_csv(path, "theta,h,re_z,im_z", profile.angles, profile.support_values, z.real, z.imag)


def write_trajectory_csv(path, record: TrajectoryRecord) -> None:
    """Tracked-path CSV: t, path index, re/im of the eigenvalue, speed."""
    d, n = record.paths.shape
    z = record.paths.T.ravel()  # step-major, as the rows run
    t, j, speed = np.repeat(record.t_grid, d), np.tile(np.arange(d), n), record.speeds().T.ravel()
    _write_csv(path, "t,j,re_lambda,im_lambda,speed", t, j, z.real, z.imag, speed)


def _write_csv(path, header: str, *columns: np.ndarray) -> None:
    """``header``, then one row per entry of the 1-d ``columns``: ints as %d, floats as %.17g.

    Rows are formatted and written ``_CSV_BLOCK_ROWS`` at a time, so the text
    held in memory does not grow with the file.
    """
    row = ",".join(["%d" if c.dtype.kind == "i" else "%.17g" for c in columns]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = zip(*(c[start : start + _CSV_BLOCK_ROWS].tolist() for c in columns))
            fh.write("".join(map(row.__mod__, block)))


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# --- SVG -------------------------------------------------------------------

_SVG_SIZE = 640
_SVG_REACH = 1.45  # complex-plane half-width shown


def _pix(z: complex) -> tuple[float, float]:
    x = (z.real + _SVG_REACH) / (2 * _SVG_REACH) * _SVG_SIZE
    y = (_SVG_REACH - z.imag) / (2 * _SVG_REACH) * _SVG_SIZE
    return x, y


def render_range_svg(
    path,
    profile: SupportProfile,
    eigenvalues: np.ndarray | None = None,
    title: str = "numerical range",
) -> None:
    """Self-contained SVG: unit circle, boundary polygon, eigenvalue markers,
    origin crosshair."""
    s = _SVG_SIZE
    cx, cy = _pix(0j)
    r_unit = 1.0 / (2 * _SVG_REACH) * s
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
        f'viewBox="0 0 {s} {s}">',
        f'<rect width="{s}" height="{s}" fill="white"/>',
        f'<text x="12" y="24" font-family="monospace" font-size="16">{title}</text>',
        # axes through the origin
        f'<line x1="0" y1="{cy:.2f}" x2="{s}" y2="{cy:.2f}" stroke="#cccccc" stroke-width="1"/>',
        f'<line x1="{cx:.2f}" y1="0" x2="{cx:.2f}" y2="{s}" stroke="#cccccc" stroke-width="1"/>',
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r_unit:.2f}" fill="none" stroke="#999999" '
        'stroke-width="1" stroke-dasharray="4 3"/>',
    ]

    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(_pix, profile.boundary_points))
    parts.append(
        f'<polygon points="{points}" fill="#4477aa" fill-opacity="0.25" '
        'stroke="#4477aa" stroke-width="1.5"/>'
    )

    if eigenvalues is not None:
        for z in eigenvalues:
            ex, ey = _pix(complex(z))
            parts.append(f'<circle cx="{ex:.2f}" cy="{ey:.2f}" r="5" fill="#cc3311"/>')

    # origin crosshair
    parts.append(
        f'<path d="M {cx - 8:.2f} {cy:.2f} L {cx + 8:.2f} {cy:.2f} '
        f'M {cx:.2f} {cy - 8:.2f} L {cx:.2f} {cy + 8:.2f}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")
