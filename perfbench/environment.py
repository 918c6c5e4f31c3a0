"""The environment block written with every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_UNITS = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def cache_sizes() -> dict[str, int]:
    """Data and unified cache sizes in bytes by level (L1, L2, L3), as the kernel reports them."""
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        sizes["L" + level] = int(size[:-1]) * _UNITS[size[-1]] if size[-1] in _UNITS else int(size)
    return sizes


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def sha256_file(path: Path | None) -> str | None:
    if path is None:
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def environment(root: Path, seed: int, workload: dict, input_path: Path | None) -> dict:
    caches = cache_sizes()
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cache_bytes": caches,
        "git_commit": git_commit(root),
        "seed": seed,
        "workload": workload,
        "input_sha256": sha256_file(input_path),
    }
    if input_path is not None and "L3" in caches:
        size, l3 = input_path.stat().st_size, caches["L3"]
        if size < 4 * l3:
            env["working_set_note"] = (
                "the %.0f MiB input is below four times the %.0f MiB L3 this machine reports, "
                "so the rule that a bandwidth benchmark's working set exceed 4x the last-level "
                "cache is not met at this size; the input is deliberately not grown to meet it"
                % (size / (1 << 20), l3 / (1 << 20))
            )
    return env
