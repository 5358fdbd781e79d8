"""Run artifacts: checkpoints, diagnostics CSV, mesh dumps, manifest.

Checkpoints carry a plain-text header (time, case, both mesh dumps) and
the raw little-endian float64 bytes of u1 and w1 in row-major order, so a
load reproduces the state bit for bit.  Diagnostics rows are written with
17 significant digits so downstream fits are reproducible from the CSV.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import meshmap as mm
from .fields import FieldGrid

_MAGIC = "AXIBLOW-CKPT-1"


def fmt(x) -> str:
    return f"{float(x):.17g}"


def write_checkpoint(path, t: float, case: int, u1: FieldGrid, w1: FieldGrid,
                     mesh_r: mm.MeshMap, mesh_z: mm.MeshMap) -> None:
    header = [
        _MAGIC,
        f"t: {fmt(t)}",
        f"case: {case}",
        f"n: {mesh_r.n}",
        f"m: {mesh_z.n}",
        "mesh_r:",
        mm.dump_mesh(mesh_r).rstrip("\n"),
        "end_mesh",
        "mesh_z:",
        mm.dump_mesh(mesh_z).rstrip("\n"),
        "end_mesh",
        "data:",
    ]
    # Written under a temporary name and renamed, so an interrupted write
    # never leaves a truncated file under the final name.
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.write(np.ascontiguousarray(u1.values, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(w1.values, dtype="<f8").tobytes())
    os.replace(tmp, path)


@dataclass
class Checkpoint:
    t: float
    case: int
    u1: FieldGrid
    w1: FieldGrid
    mesh_r: mm.MeshMap
    mesh_z: mm.MeshMap


def read_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, rest = blob.partition(b"\ndata:\n")
    lines = head.decode().splitlines()
    if lines[0] != _MAGIC:
        raise ValueError(f"{path} is not a checkpoint file")
    meta = {}
    mesh_texts = []
    i = 1
    while i < len(lines):
        line = lines[i]
        if line.endswith(":") and line[:-1] in ("mesh_r", "mesh_z"):
            j = lines.index("end_mesh", i)
            mesh_texts.append("\n".join(lines[i + 1:j]))
            i = j + 1
            continue
        key, _, val = line.partition(":")
        meta[key.strip()] = val.strip()
        i += 1
    n, m = int(meta["n"]), int(meta["m"])
    mesh_r = mm.parse_mesh(mesh_texts[0])
    mesh_z = mm.parse_mesh(mesh_texts[1])
    count = (n + 1) * (m + 1)
    if len(rest) != 16 * count:
        raise ValueError(f"{path}: checkpoint payload has {len(rest)} bytes, "
                         f"expected {16 * count} for two {n + 1}x{m + 1} float64 fields")
    flat = np.frombuffer(rest, dtype="<f8")
    u1 = FieldGrid(flat[:count].reshape(n + 1, m + 1).copy(), "even", "odd")
    w1 = FieldGrid(flat[count:].reshape(n + 1, m + 1).copy(), "even", "odd")
    return Checkpoint(float(meta["t"]), int(meta["case"]), u1, w1, mesh_r, mesh_z)


class DiagnosticsWriter:
    """Append-only CSV writer flushing one complete row per record."""

    def __init__(self, path, header):
        self.path = path
        self._fh = open(path, "w")
        self._fh.write(",".join(header) + "\n")
        self._fh.flush()

    def write(self, row) -> None:
        cells = [fmt(x) if isinstance(x, float) else str(x) for x in row]
        self._fh.write(",".join(cells) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def read_diagnostics(path):
    """Load a diagnostics CSV as {column: array}."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def write_manifest(out_dir, entries: dict, files) -> None:
    lines = [f"{k}: {v}" for k, v in entries.items()]
    lines.append("files:")
    lines.extend(f"  {name}" for name in sorted(files))
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
