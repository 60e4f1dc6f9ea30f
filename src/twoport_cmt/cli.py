"""Command-line front end.

Subcommands compute plot-ready CSV/JSON tables: single-beam spectra, phase
sweeps, joint-absorbance curves, rate-space phase diagrams, CPA reports,
time-domain cross-checks, and synthetic-data generation / fitting.  Output is
deterministic for a fixed config and seed; provenance goes to a sidecar
metadata file, never into the data.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import fitting, regimes, timedomain
from .model import (Background, DegenerateResponseError, ModelParams,
                    _defined_elements, _det_s_grid, single_beam_spectrum)
from .timedomain import DriveSpec, SteadyStateNotConvergedError
from .twoport import (KINDS, _joint, _port_intensities, dephasing_defined,
                      dets_from_observables, observables, output_dephasing,
                      two_beam_outputs)

_log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
OUTDIR_ENV = "TWOPORT_CMT_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

HEADERS = {
    "spectrum": ["omega_meV", "R1", "R2", "T", "A1", "A2", "B", "abs_detS"],
    "sweep-phase": ["phi_rad", "out1", "out2", "a_joint"],
    "joint": ["omega_meV", "a_min", "a_max", "a_avg", "delta_psi_rad",
              "abs_detS", "abs_detS_reconstructed"],
    "phase-diagram": ["x", "y", "n_peaks", "scc_residual", "wcc_residual",
                      "min_abs_detS"],
    "cpa": ["omega_meV", "abs_detS_min", "phi_star_rad"],
    "oracle-check": ["omega_meV", "phi_rad", "a_joint_closed",
                     "a_joint_oracle", "abs_diff"],
    "synth": ["omega_meV", "kind", "value", "sigma"],
}

DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "model": {"omega0": 124.5, "gamma_r": 3.0, "gamma_nr": 0.0,
              "gamma_m": 5.0, "omega_rabi": 8.0, "delta_m": 0.0},
    "background": {"r_b": 1.0, "theta_b": 0.0},
    "grid": {"min": 105.0, "max": 145.0, "n": 801},
    "output": {"path": "out.csv", "format": "csv"},
    "seed": 0,
    "sweep_phase": {"omega": 124.5, "n_phi": 64},
    "joint": {"n_phi": 64},
    "phase_diagram": {"x_param": "gamma_m", "x_min": 0.0, "x_max": 10.0,
                      "x_n": 21, "y_param": "gamma_r", "y_min": 0.0,
                      "y_max": 10.0, "y_n": 21},
    "cpa": {"tol": 1e-10},
    "oracle_check": {"n_samples": 4},
    "synth": {"kinds": ["A1"], "noise_sigma": 0.005},
    "fit": {"data": "", "free": ["omega0", "gamma_r", "gamma_m", "omega_rabi"]},
}
LEAST_VALUE = {  # the least value of each integer key but schema_version
    "seed": 0, "grid.n": 2, "sweep_phase.n_phi": 1, "phase_diagram.x_n": 1,
    "phase_diagram.y_n": 1, "oracle_check.n_samples": 1,
    "joint.n_phi": 3}  # a sinusoid A + B sin(phi + c) needs three samples


# flag -> config path; the argparse dest is the flag name with dashes turned
# into underscores, and the type that of the path's default (see build_parser)
COMMON_FLAGS = {
    "--output": "output.path",
    "--format": "output.format",
    "--seed": "seed",
    **{f"--{name.replace('_', '-')}": f"model.{name}"
       for name in DEFAULT_CONFIG["model"]},
    "--r-b": "background.r_b",
    "--theta-b": "background.theta_b",
    "--grid-min": "grid.min",
    "--grid-max": "grid.max",
    "--grid-n": "grid.n",
}
COMMAND_FLAGS = {
    "sweep-phase": {"--omega": "sweep_phase.omega",
                    "--n-phi": "sweep_phase.n_phi"},
    "joint": {"--n-phi": "joint.n_phi"},
    "cpa": {"--tol": "cpa.tol"},
    "oracle-check": {"--n-samples": "oracle_check.n_samples"},
    "synth": {"--kinds": "synth.kinds", "--noise-sigma": "synth.noise_sigma"},
    "fit": {"--data": "fit.data", "--free": "fit.free"},
}


def _command_flags(command: str) -> dict:
    """Every flag the subcommand takes besides --config, in --help order."""
    return {**COMMON_FLAGS, **COMMAND_FLAGS.get(command, {})}


@functools.cache
def _flag_table(command: str) -> dict:
    """flag -> (argparse dest, value type, takes a list, config path as a
    tuple of keys) for every flag of the subcommand: --config first (no
    config path), then `_command_flags` in --help order. The type is that
    of the path's default in DEFAULT_CONFIG, str for a list and --config.
    `build_parser`, `_plain_args` and `load_config` all read it."""
    table = {"--config": ("config", str, False, None)}
    for flag, path in _command_flags(command).items():
        keys = tuple(path.split("."))
        default = functools.reduce(dict.__getitem__, keys, DEFAULT_CONFIG)
        many = isinstance(default, list)
        table[flag] = (flag[2:].replace("-", "_"),
                       str if many else type(default), many, keys)
    return table


_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's pattern


def _plain_args(argv):
    """The namespace that `build_parser().parse_args(argv)` returns, read in
    one pass over `_flag_table`, where argv is plain: a subcommand, then
    only exact flags of it, each followed by one value (the list flags
    --kinds and --free: their values up to the next option-like token),
    each value converted by the type argparse uses. A value starts with
    "-" only as a negative number by argparse's own pattern. For any other
    argv (help, abbreviations, --flag=value, --, unknown flags, missing or
    bad values) None: argparse then reads it, with its own messages and
    exit 2."""
    if not argv or argv[0] not in COMMANDS:
        return None
    table = _flag_table(argv[0])
    values = {row[0]: None for row in table.values()}
    i, n = 1, len(argv)
    while i < n:
        row = table.get(argv[i])
        if row is None:
            return None
        dest, kind, many, _ = row
        start = i = i + 1
        while i < n and (argv[i][:1] != "-"
                         or _NEGATIVE_NUMBER.match(argv[i])):
            i += 1
            if not many:
                break
        if i == start:  # no value
            return None
        try:
            values[dest] = ([kind(token) for token in argv[start:i]] if many
                            else kind(argv[start]))
        except ValueError:
            return None
    return argparse.Namespace(command=argv[0], **values)


class ConfigError(ValueError):
    pass


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """base updated from override, whose every value must have the JSON type
    of the default it replaces (a float key also takes an integer); a float
    must be finite, an integer at least its LEAST_VALUE."""
    out = dict(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        kind = type(base[key])
        if not (type(val) is kind or (kind, type(val)) == (float, int)) or (
                kind is list and not all(type(v) is str for v in val)):
            name = {dict: "an object", int: "an integer", float: "a number",
                    str: "a string", list: "a list of strings"}[kind]
            raise ConfigError(f"config key {where} must be {name}, got {val!r}")
        if kind is float and not abs(val) < math.inf:  # NaN fails too
            raise ConfigError(f"config key {where} must be finite, got {val!r}")
        if kind is int and val < LEAST_VALUE.get(where, val):
            raise ConfigError(
                f"config key {where} must be >= {LEAST_VALUE[where]}, got {val}")
        out[key] = _merge(base[key], val, where) if kind is dict else val
    return out


def load_config(args) -> dict:
    """The config of a parsed argv: a copy of DEFAULT_CONFIG, merged
    with the `--config` file if one is given and then with the flags that
    were given (each at its `_flag_table` path), every value checked by
    `_merge`. args is a namespace of `build_parser` or `_plain_args`."""
    # the defaults hold values and sections of values, no deeper dicts
    cfg = {key: {k: list(v) if type(v) is list else v
                 for k, v in section.items()}
           if type(section) is dict else section
           for key, section in DEFAULT_CONFIG.items()}
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError(f"config {args.config} must be a JSON object, "
                              f"got {type(user).__name__}")
        if user.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError("unsupported schema_version")
        cfg = _merge(cfg, user)
    # the flags that were given, as an override nested like the config
    flags: dict = {}
    for dest, _, _, path in _flag_table(args.command).values():
        v = getattr(args, dest)
        if v is not None and path:
            *parents, key = path
            node = flags
            for parent in parents:
                node = node.setdefault(parent, {})
            node[key] = v
    return _merge(cfg, flags)


def _build_grid(cfg: dict) -> np.ndarray:
    g = cfg["grid"]
    if not g["max"] > g["min"]:
        raise ConfigError(f"grid.max must be > grid.min, got {g}")
    return np.linspace(g["min"], g["max"], g["n"])


def _resolve_output(cfg: dict) -> str:
    """The output path, checked with the output format (which `fit` ignores,
    as it always writes JSON)."""
    path, fmt = cfg["output"]["path"], cfg["output"]["format"]
    if not path:
        raise ConfigError("output.path must be a non-empty string, got ''")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _meta(cfg: dict, command: str, **extra) -> dict:
    """Provenance: the `.meta.json` sidecar, or the `meta` of a JSON output."""
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "config": cfg, **extra}


def _open_output(path: str):
    """path opened for writing; a path that cannot be is a ConfigError."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}")


def _write_json(path: str, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    with _open_output(path) as fh:
        fh.write(text)


# -- CSV text: "%.17g" % x for whole tables at once ---------------------------
# Tables of fewer cells are formatted row by row with `%`: the kernel's fixed
# cost, about 0.1 ms, is more than `%` takes for a few hundred cells.
_KERNEL_MIN_CELLS = 500
# Most float cells per kernel pass: the temporaries of a pass of 3300 cells
# (about 0.7 MB) reuse freed heap memory, where those of a whole 801 x 8
# table were new pages on every call, about 1 us each per 4 KiB.
_CHUNK = 3300
_FIELD = 24  # bytes of a float cell's text: -0.000 and 17 digits at most
_POW10 = np.array([float(10 ** s) for s in range(23)])  # exact doubles
_ZEROS = 0x3030303030303030  # eight ASCII '0'
# the ASCII digits of each n < 10**4, as a little-endian word of 4 bytes
_QUAD = np.ascontiguousarray(
    np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
).view("<u4").ravel()
# the exponent of the d.ddde-XX form, for X = -5 ... -28
_EXP = np.frombuffer(b"".join(b"e-%02d" % -x for x in range(-5, -29, -1)),
                     np.uint8).reshape(-1, 4)


def _split(a):
    """Veltkamp's split of float64 a into halves of 26 bits, a = hi + lo."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _layout():
    """The tables that lay out the text of a float cell from its digits.

    The digits come as 24 bytes: "0000000", then the 17 digits. With X the
    decimal exponent, -28 <= X <= 16, the text is d.ddd (X >= 0, or X < -4
    followed by e-XX; the dot after max(X, 0) + 1 digits) or 0.000ddd
    (-4 <= X < 0). Its bytes after the dot, or all of 0.000ddd but the dot,
    are the digit bytes shifted down by `sh` bits, and those before the dot
    by sh + 8. Per key (neg, X + 28): the masks of those two sets of bytes
    and the constant bytes (sign and dot), each as 3 words stored
    word-major, and `sh`. Per (X + 28, k - 1), k the significant digits:
    the length of the text without its sign."""
    neg, x = (np.indices((2, 45))[..., None]
              - np.array([0, 28])[:, None, None, None])
    j = np.arange(_FIELD)
    mid = (x < 0) & (x >= -4)
    dot = neg + np.maximum(x, 0) + 1
    before = ~mid & (j >= neg) & (j < dot)
    after = np.where(mid, j >= neg, j > dot) & (j != dot)
    const = np.where((j == 0) & (neg == 1), ord("-"), (j == dot) * ord("."))
    before, after, const = (np.ascontiguousarray(
        np.broadcast_to(m, (2, 45, _FIELD)).astype(np.uint8)).view("<u8")
        .reshape(90, 3).T.ravel() for m in (before * 255, after * 255, const))
    sh = 8 * np.where(mid, 6 + x - neg, 6 - neg)[..., 0].ravel()
    x, k = np.indices((45, 17)) + np.array([-28, 1])[:, None, None]
    q = np.maximum(x, 0) + 1  # digits before the dot
    length = np.where(mid[0], 1 - x + k,
                      np.maximum(k, q) + (k > q) + 4 * (x < -4))
    return before, after, const, sh.astype(np.uint64), length.ravel()


_BEFORE, _AFTER, _CONST, _SHIFT, _LENGTH = _layout()
_WORD = np.array([[0], [90], [180]])  # offsets of the 3 words in those tables


def _times_pow10(a, s):
    """a * 10**s as hi + lo exactly (Dekker's product), for 0 <= s <= 22."""
    hi = a * _POW10.take(s)
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(s), _POW10_LO.take(s)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _scaled(a, s):
    """a * 10**s as hi + lo, for 0 <= s <= 44, and the cells where hi +
    rint(lo) might not be the exact product rounded. Exact for s <= 22;
    beyond, (a * 1e22) * 10**(s - 22) leaves lo within 3e-15 of the exact
    remainder, so a cell whose lo is within 1e-13 of a half-integer is
    unsure. (No such product of a double lies within 0.01 of 1e16 or 1e17,
    so the decade of each is told exactly.)"""
    hi, lo = _times_pow10(a, np.minimum(s, 22))
    far = np.flatnonzero(s > 22)
    if far.size:
        t = s[far] - 22
        h, l = _times_pow10(hi[far], t)
        l += lo[far] * _POW10.take(t)
        hi[far], lo[far] = h, l
        far = far[np.abs(np.abs(l - np.rint(l)) - 0.5) < 1e-13]
    return hi, lo, far


def _digits(a):
    """The 17 significant digits of each float64 a >= 0 with 1e-28 <= a <
    1e17 (a is overwritten where it is not), as (words, s, k, done): the
    digits as four little-endian words of
    ASCII, "0000000" and the first digit, then 16 digits, then a zero word;
    s with 16 - s the decimal exponent X of %g; k the significant digits
    once trailing zeros go; and where done, those are exact. Other cells
    are left to `%`."""
    done = (a >= 1e-28) & (a < 1e17)  # NaN too is left to `%`
    a[~done] = 1.0
    # D is a * 10**s rounded half-even to an integer in [1e16, 1e17)
    s = (16.0 - np.floor(np.log10(a))).clip(0, 44).astype(np.intp)
    hi, lo, unsure = _scaled(a, s)
    done[unsure] = False
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # hi is an integer
    # log10 can miss the decade by one, and rounding can carry into the next
    # one; only a product that rounds near 1e16 or 1e17 can
    fix = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if fix.size:
        h, l = hi[fix], lo[fix]
        s[fix] += (((h - 1e16) + l < 0).view(np.int8)
                   - ((h - 1e17) + l >= 0).view(np.int8))
        bad = fix[(s[fix] < 0) | (s[fix] > 44)]  # X = -29: the double 1e-28
        done[bad] = False
        s[bad] = 0
        h, l, unsure = _scaled(a[fix], s[fix])
        done[fix[unsure]] = False
        d[fix] = h.astype(np.int64) + np.rint(l).astype(np.int64)
        up = fix[d[fix] == 10 ** 17]
        d[up] = 10 ** 16
        s[up] -= 1
    n = d.size
    top = d // 10 ** 8
    lead = top // 10 ** 8
    groups = np.empty((2, n), np.int64)  # two groups of eight digits
    np.subtract(top, lead * 10 ** 8, out=groups[0])
    np.subtract(d, top * 10 ** 8, out=groups[1])
    high = groups // 10 ** 4
    quads = np.empty((2, n, 2), np.intp)  # four groups of four, in text order
    quads[..., 0] = high
    np.subtract(groups, high * 10 ** 4, out=quads[..., 1])
    words = np.empty((4, n), "<u8")
    words[0] = (lead.view(np.uint64) << 56) + _ZEROS
    _QUAD.take(quads, out=words[1:3].view("<u4").reshape(2, n, 2))
    words[3] = 0
    # k: 17 less the trailing '0's of words 2 and 1, the bytes above the
    # highest set bit of each word less '0's
    e = ((words[1:3] ^ _ZEROS).view(np.int64).astype(np.float64)
         .view(np.int64) >> 52) - 1015  # 8 (j + 1) + bit, j the top byte
    tz = 8 - (np.maximum(e, 0) >> 3)
    return words, s, 17 - tz[1] - (tz[1] == 8) * tz[0], done


def _g17(x):
    """The `"%.17g" % v` bytes of the cells v of the float64 array x with
    1e-28 <= |v| < 1e17, as (fields, length, done): fields[i, :length[i]] is
    the text of x[i] where done[i]; other cells are left to `%`."""
    neg = x < 0
    words, s, k, done = _digits(np.abs(x))
    key = neg * 45 + (44 - s)
    sh = _SHIFT.take(key)
    key = key + _WORD
    after = words[:3] >> sh
    after |= words[1:] << (64 - sh)
    before = after >> 8  # the digits shifted by sh + 8
    before[:2] |= after[1:] << 56
    after &= _AFTER.take(key)
    before &= _BEFORE.take(key)
    after |= before
    after |= _CONST.take(key)
    fields = np.ascontiguousarray(after.T, "<u8").view(np.uint8)
    length = _LENGTH.take((44 - s) * 17 + k - 1) + neg
    exp = np.flatnonzero(s > 20)  # X < -4: the digits, then e-XX
    if exp.size:
        fields[exp[:, None], length[exp, None] + np.arange(-4, 0)] = _EXP[
            s[exp] - 21]
    return fields, length, done


def _texts(texts: list) -> tuple:
    """The strs texts as rows of UTF-8 bytes, padded to one width, and
    their lengths."""
    encoded = [t.encode() for t in texts]
    length = np.fromiter(map(len, encoded), np.intp, len(encoded))
    rows = np.zeros((len(encoded), length.max(initial=0)), np.uint8)
    rows[np.arange(rows.shape[1]) < length[:, None]] = np.frombuffer(
        b"".join(encoded), np.uint8)
    return rows, length


def _csv_lines(cols: list, fmts: list) -> tuple:
    """The CSV lines of the equal-length 1-D columns cols, float64, int or
    str, each cell as `fmts[j] % v`, and how many cells `_g17` formatted and
    how many were gathered: float64 cells by `_g17` where it covers them and
    by `%` one by one where not; an int or str column by `%` once per
    distinct value, its cells gathered from those texts.  The cells are
    placed into one byte buffer per chunk of rows."""
    n_rows, n_cols = len(cols[0]), len(cols)
    floats = [j for j, c in enumerate(cols) if c.dtype.char == "d"]
    # per other column, the texts of its distinct values, their lengths and
    # each row's value; np.unique would merge 0.0 and -0.0, so no float
    # column goes this way
    distinct = {}
    for j, c in enumerate(cols):
        if c.dtype.char != "d":
            values, inverse = np.unique(c, return_inverse=True)
            distinct[j] = (*_texts([fmts[j] % v for v in values.tolist()]),
                           inverse)
    min_width = max([_FIELD] + [t.shape[1] + 1 for t, _, _ in distinct.values()])
    passes = max(1, -(-n_rows * max(1, len(floats)) // _CHUNK))
    step = -(-n_rows // passes)  # rows per pass, as even as they go
    seps = np.full((step, n_cols), ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    seps = seps.ravel()
    lines, kernel = [], 0
    for r0 in range(0, n_rows, step):
        rows = min(step, n_rows - r0)
        texts = []  # the float cells `_g17` leaves, formatted one by one
        if floats:
            x = np.stack([cols[j][r0:r0 + step] for j in floats],
                         axis=1).ravel()
            fields, flen, done = _g17(x)
            left = np.flatnonzero(~done)
            texts = list(map("%.17g".__mod__, x[left].tolist()))
            kernel += x.size - left.size
        if len(floats) == n_cols and not texts:
            buf, length = fields, flen
        else:
            trows, tlen = _texts(texts)
            buf = np.zeros((rows, n_cols, max(min_width, trows.shape[1] + 1)),
                           np.uint8)
            length = np.zeros((rows, n_cols), np.intp)
            if floats:
                buf[:, floats, :_FIELD] = fields.reshape(rows, -1, _FIELD)
                length[:, floats] = flen.reshape(rows, -1)
            for j, (vrows, vlen, inverse) in distinct.items():
                value = inverse[r0:r0 + step]
                buf[:, j, :vrows.shape[1]] = vrows[value]
                length[:, j] = vlen[value]
            buf = buf.reshape(rows * n_cols, -1)
            length = length.ravel()
            if texts:
                where = (left // len(floats) * n_cols
                         + np.take(floats, left % len(floats)))
                buf[where, :trows.shape[1]] = trows
                length[where] = tlen
        width = buf.shape[1]
        buf.reshape(-1)[np.arange(0, buf.size, width) + length] = seps[
            :len(buf)]
        prefix = np.arange(width) <= np.arange(width)[:, None]  # row L: j <= L
        lines.append(buf[prefix.take(length, axis=0)].tobytes())
    return b"".join(lines).decode(), kernel, n_rows * len(distinct)


def write_output(cfg: dict, command: str, *columns, **extra_meta) -> int:
    """Write the command's table, its columns in HEADERS order, with its
    provenance; returns EXIT_OK.  A CSV cell is written `%d`, `%s` or `%.17g`
    by its column's dtype kind.  Tables of _KERNEL_MIN_CELLS cells or more
    go through `_csv_lines`, which writes the same bytes: `_g17` formats
    float64 cells with 1e-28 <= |x| < 1e17, `%` the other float cells, and
    an int or str column is formatted once per distinct value; smaller
    tables are formatted row by row.  One DEBUG line per CSV table counts
    the cells each way wrote.  A JSON cell is a float unless it is a
    string."""
    header = HEADERS[command]
    path = _resolve_output(cfg)
    meta = _meta(cfg, command, **extra_meta)
    cols = [np.asarray(c) for c in columns]
    if cfg["output"]["format"] == "csv":
        fmts = [{"i": "%d", "u": "%d", "U": "%s"}.get(c.dtype.kind, "%.17g")
                for c in cols]
        n_rows = min(map(len, cols))
        cells, kernel, gathered = n_rows * len(cols), 0, 0
        if cells >= _KERNEL_MIN_CELLS:
            body, kernel, gathered = _csv_lines([c[:n_rows] for c in cols],
                                                fmts)
        else:
            line = ",".join(fmts) + "\n"
            body = "".join(line % r for r in zip(*(c.tolist() for c in cols)))
        _log.debug("csv %s: rows=%d kernel_cells=%d distinct_cells=%d "
                   "percent_cells=%d", command, n_rows, kernel, gathered,
                   cells - kernel - gathered)
        with _open_output(path) as fh:
            fh.write(",".join(header) + "\n")
            fh.write(body)
        try:
            _write_json(path + ".meta.json", meta)
        except ConfigError:
            os.remove(path)  # a config error leaves no file of this run
            raise
    else:
        rows = zip(*((c if c.dtype.kind == "U" else c.astype(float)).tolist()
                     for c in cols))
        _write_json(path, {"meta": meta, "columns": header, "rows": list(rows)})
    return EXIT_OK


def cmd_spectrum(cfg: dict, p: ModelParams, bg: Background) -> int:
    grid = _build_grid(cfg)
    t = single_beam_spectrum(p, bg, grid)
    return write_output(cfg, "spectrum", t.omega, t.R1, t.R2, t.T, t.A1, t.A2,
                        t.B, t.abs_dets)


def cmd_sweep_phase(cfg: dict, p: ModelParams, bg: Background) -> int:
    block = cfg["sweep_phase"]
    phis = np.linspace(0.0, 2 * math.pi, block["n_phi"], endpoint=False)
    a, out1, out2 = two_beam_outputs(
        *_defined_elements(p, bg, block["omega"]), phis)
    return write_output(cfg, "sweep-phase", phis, out1, out2, a)


def cmd_joint(cfg: dict, p: ModelParams, bg: Background) -> int:
    grid = _build_grid(cfg)
    s11, s12, s22 = _defined_elements(p, bg, grid)
    t, r1, r2, a1, a2 = observables(s11, s12, s22,
                                    ("T", "R1", "R2", "A1", "A2"))[0]
    a_avg, z = _joint(a1, a2, s11, s12, s22)
    a_mod = np.abs(z)  # the extrema over phi are a_avg -+ |z|
    defined = dephasing_defined(s11, s12, s22)
    # the same dephasing measured instead: the phase offset of the two output
    # intensities A + B sin(phi + c) over the input dephasing phi, fitted for
    # every omega of each port's table at once; on n_phi >= 3 phases
    # equispaced over a period, 1, sin and cos are orthogonal, so the
    # least-squares c is the angle of the projections onto cos and sin
    phis = np.linspace(0.0, 2 * math.pi, cfg["joint"]["n_phi"], endpoint=False)
    cos, sin = np.cos(phis)[:, None], np.sin(phis)[:, None]
    c1, c2 = (np.arctan2(np.sum(cos * out, axis=0), np.sum(sin * out, axis=0))
              for out in _port_intensities(s11, s12, s22, phis[:, None]))
    recon = dets_from_observables(t, r1, r2, c2 - c1)
    return write_output(
        cfg, "joint", grid, a_avg - a_mod, a_avg + a_mod, a_avg,
        np.where(defined, output_dephasing(s11, s12, s22), math.nan),
        np.abs(_det_s_grid(p, grid)[0]), np.where(defined, recon, math.nan))


def cmd_phase_diagram(cfg: dict, p: ModelParams, bg: Background) -> int:
    block = cfg["phase_diagram"]
    xs, ys = (np.linspace(block[f"{a}_min"], block[f"{a}_max"], block[f"{a}_n"])
              for a in "xy")
    loci = regimes.critical_loci(p, block["x_param"], xs, block["y_param"], ys)
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return write_output(cfg, "phase-diagram", xx.ravel(), yy.ravel(),
                        loci.n_peaks.ravel(), loci.scc_residual.ravel(),
                        loci.wcc_residual.ravel(), loci.min_abs_dets.ravel())


def cmd_cpa(cfg: dict, p: ModelParams, bg: Background) -> int:
    pts = regimes.find_cpa(p, tol=cfg["cpa"]["tol"])
    return write_output(cfg, "cpa", [pt.omega for pt in pts],
                        [pt.dets_min for pt in pts],
                        [pt.phi_star for pt in pts], empty_result=not pts)


def cmd_oracle_check(cfg: dict, p: ModelParams, bg: Background) -> int:
    grid = _build_grid(cfg)  # drives are drawn over its range
    n = cfg["oracle_check"]["n_samples"]
    # one (omega, phi) pair per drive, omega drawn first
    ws, phis = np.random.default_rng(cfg["seed"]).uniform(
        [grid[0], -math.pi], [grid[-1], math.pi], (n, 2)).T
    closed = two_beam_outputs(*_defined_elements(p, bg, ws), phis)[0]
    oracle = np.array([
        timedomain.oracle_scattering(p, bg, DriveSpec(omega=w, phi=phi)).a_joint
        for w, phi in zip(ws.tolist(), phis.tolist())])
    return write_output(cfg, "oracle-check", ws, phis, closed, oracle,
                        np.abs(closed - oracle))


_KIND_NAMES = np.array(KINDS)  # a dataset's kind column from its kind_code


def cmd_synth(cfg: dict, p: ModelParams, bg: Background) -> int:
    block = cfg["synth"]
    ds = fitting.synth_dataset(p, bg, _build_grid(cfg), block["kinds"],
                               block["noise_sigma"], cfg["seed"])
    return write_output(cfg, "synth", ds.omega, _KIND_NAMES[ds.kind_code],
                        ds.value, ds.sigma)


def cmd_fit(cfg: dict, p: ModelParams, bg: Background) -> int:
    path = _resolve_output(cfg)
    block = cfg["fit"]
    try:
        data = fitting.SpectrumDataset.from_csv(block["data"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"fit.data: {exc}")
    result = fitting.fit_params(data, p, free=tuple(block["free"]),
                                background=bg)
    _write_json(path, {
        "meta": _meta(cfg, "fit"),
        "params": asdict(result.params),
        "background": asdict(result.background),
        "residual": result.residual,
        "chi2_dof": result.chi2_dof,
        "n_iter": result.n_iter,
        "converged": result.converged,
        "param_sigma": result.param_sigma,
    })
    if not (result.converged and math.isfinite(result.residual)):
        print(f"numerical error: fit not converged after {result.n_iter} "
              f"evaluations (residual {result.residual}); {path} written",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


COMMANDS = {
    "spectrum": cmd_spectrum,
    "sweep-phase": cmd_sweep_phase,
    "joint": cmd_joint,
    "phase-diagram": cmd_phase_diagram,
    "cpa": cmd_cpa,
    "oracle-check": cmd_oracle_check,
    "synth": cmd_synth,
    "fit": cmd_fit,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from `_flag_table` (do
    not modify it). `main` uses it for every argv that `_plain_args` does
    not read: it gives --help and every argv error its message and exit 2."""
    parser = argparse.ArgumentParser(
        prog="twoport-cmt",
        description="Two-port coupled-oscillator scattering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        for flag, (_, kind, many, _) in _flag_table(name).items():
            text = "JSON config file" if flag == "--config" else None
            sp.add_argument(flag, type=kind, nargs="+" if many else None,
                            help=text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    route = "plain pass"
    if args is None:
        args, route = build_parser().parse_args(argv), "argparse"
    _log.debug("argv %s: read by the %s", args.command, route)
    try:
        cfg = load_config(args)
        # every subcommand validates the model and the background
        return COMMANDS[args.command](cfg, ModelParams(**cfg["model"]),
                                      Background(**cfg["background"]))
    except (DegenerateResponseError, SteadyStateNotConvergedError) as exc:
        print(f"numerical error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # a ConfigError, or a range the library rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:  # Python float arithmetic on huge rates
        print(f"config error: rates too large: arithmetic overflow ({exc})",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
