"""Binary grid I/O, config parsing, hashing, and run manifests.

File format (little-endian):
  header: magic "FRLB", u32 version, u32 kind, u32 n, u32 cells,
          f64 lower, f64 upper
  kind 1 (fields): u32 m, then m * (cells+1)^n float64 node values (C order)
  kind 2 (mask):   (cells+1)^n uint8 node flags (0/1)
  kind 3 (slab):   f64 a, f64 gamma, u32 J, (J+1) float64 y-nodes,
                   (cells+1)^n * (J+1) float64 values (x-major)
Readers reject a file whose length differs from what its header declares.
All writes are atomic (temp file + rename). Config files are flat KEY = VALUE
text with # comments.
"""

import hashlib
import json
import os
import struct
import sys
import tempfile
from dataclasses import dataclass, field, asdict

import numpy as np

from .extension import ExtensionField, SlabGrid
from .grids import BoxGrid, ThinDomain

__all__ = [
    "CompatibilityError",
    "ConfigError",
    "write_mask",
    "read_mask",
    "write_fields",
    "read_fields",
    "write_slab_field",
    "read_slab_field",
    "sha256_file",
    "atomic_write_bytes",
    "atomic_write_text",
    "parse_config",
    "format_config",
    "RunManifest",
]

_MAGIC = b"FRLB"
_VERSION = 1
_HDR = struct.Struct("<4sIIII dd")
_KIND_FIELDS, _KIND_MASK, _KIND_SLAB = 1, 2, 3
_KIND_NAMES = {_KIND_FIELDS: "field", _KIND_MASK: "mask", _KIND_SLAB: "slab"}


class CompatibilityError(Exception):
    """Input files disagree on format version or grid geometry."""


class ConfigError(Exception):
    """A config file failed to parse; message names the offending line."""


def atomic_write_bytes(path, payload):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def _header(kind, grid):
    return _HDR.pack(_MAGIC, _VERSION, kind, grid.n, grid.cells_per_axis,
                     float(grid.lower), float(grid.upper))


def _open(path, kind, meta):
    """Grid, kind-specific header values and payload bytes of a FRLB file.

    meta is the struct format of the values that follow the common header.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if len(blob) < _HDR.size:
        raise CompatibilityError(f"{path}: truncated header")
    magic, ver, found, n, cells, lower, upper = _HDR.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise CompatibilityError(f"{path}: not a FRLB file")
    if ver != _VERSION:
        raise CompatibilityError(f"{path}: unsupported format version {ver}")
    if found != kind:
        raise CompatibilityError(
            f"{path}: expected a {_KIND_NAMES[kind]} file, found kind {found}"
        )
    try:
        grid = BoxGrid(n, lower, upper, cells)
    except ValueError as exc:
        raise CompatibilityError(f"{path}: bad grid in header: {exc}") from None
    meta = struct.Struct(meta)
    if len(blob) < _HDR.size + meta.size:
        raise CompatibilityError(f"{path}: truncated file")
    return grid, meta.unpack_from(blob, _HDR.size), blob[_HDR.size + meta.size :]


def _payload(buf, dtype, count, path):
    """The payload as `count` items; its length must match exactly."""
    need = count * np.dtype(dtype).itemsize
    if len(buf) != need:
        raise CompatibilityError(
            f"{path}: payload is {len(buf)} bytes, the header declares {need}"
        )
    return np.frombuffer(buf, dtype=dtype)


def write_mask(path, domain):
    payload = _header(_KIND_MASK, domain.grid) + np.ascontiguousarray(
        domain.mask.astype(np.uint8)
    ).tobytes()
    atomic_write_bytes(path, payload)


def read_mask(path):
    grid, _, buf = _open(path, _KIND_MASK, "")
    arr = _payload(buf, np.uint8, grid.num_nodes, path)
    if np.any(arr > 1):
        raise CompatibilityError(f"{path}: mask bytes must be 0 or 1")
    try:
        return ThinDomain(grid, arr.reshape(grid.node_shape).astype(bool))
    except ValueError as exc:
        raise CompatibilityError(f"{path}: {exc}") from None


def write_fields(path, grid, fields):
    arr = np.asarray(fields, dtype="<f8")
    if arr.shape == grid.node_shape:
        arr = arr[None]
    if arr.shape[1:] != grid.node_shape:
        raise ValueError("field shape does not match the grid")
    payload = (
        _header(_KIND_FIELDS, grid)
        + struct.pack("<I", arr.shape[0])
        + np.ascontiguousarray(arr).tobytes()
    )
    atomic_write_bytes(path, payload)


def read_fields(path):
    grid, (m,), buf = _open(path, _KIND_FIELDS, "<I")
    arr = _payload(buf, "<f8", m * grid.num_nodes, path)
    return grid, arr.reshape((m,) + grid.node_shape).copy()


def write_slab_field(path, ext_field):
    slab = ext_field.slab
    head = _header(_KIND_SLAB, slab.base)
    meta = struct.pack("<ddI", slab.a, slab.gamma, slab.J)
    payload = (
        head
        + meta
        + np.ascontiguousarray(slab.y_nodes, dtype="<f8").tobytes()
        + np.ascontiguousarray(ext_field.values, dtype="<f8").tobytes()
    )
    atomic_write_bytes(path, payload)


def read_slab_field(path):
    grid, (a, gamma, J), buf = _open(path, _KIND_SLAB, "<ddI")
    data = _payload(buf, "<f8", (J + 1) * (1 + grid.num_nodes), path)
    y = data[: J + 1].copy()
    try:
        slab = SlabGrid(grid, J, a=a, Y=float(y[-1]), gamma=gamma)
    except ValueError as exc:
        raise CompatibilityError(f"{path}: bad slab in header: {exc}") from None
    slab.y_nodes = y  # stored nodes are authoritative
    vals = data[J + 1 :].copy()
    return ExtensionField(slab, vals.reshape(slab.values_shape()))


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------


def parse_config(text_or_path):
    """Parse KEY = VALUE lines (#-comments allowed) into an ordered dict."""
    if "\n" not in str(text_or_path) and os.path.exists(text_or_path):
        with open(text_or_path) as fh:
            text = fh.read()
    else:
        text = str(text_or_path)
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected KEY = VALUE, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        out[key] = val.strip()
    return out


def format_config(cfg):
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


def _environment():
    import scipy

    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    blas = scipy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {**{var: os.environ.get(var) for var in threads},
            "python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


@dataclass
class RunManifest:
    """Everything needed to reproduce one CLI run.

    `environment`: the BLAS/OpenMP thread variables (None when unset), on
    which byte-identical replay depends, the Python/numpy/scipy versions, and
    the name and version of scipy's BLAS (None when its build record has none).
    `peak_rss_mb`: the process's peak resident set size when the run finished,
    in MiB (None until then, and in older manifests).
    """

    tool_version: str
    command: str
    config: dict
    seed: int | None = None
    input_hashes: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)
    complete: bool = False
    environment: dict | None = field(default_factory=_environment)
    peak_rss_mb: float | None = None

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def save(self, path):
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path):
        with open(path) as fh:  # older manifests record no environment
            return cls(**{"environment": None, **json.load(fh)})
