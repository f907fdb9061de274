"""Machine and source facts recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess


def cache_sizes() -> dict[str, str]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for entry in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, entry, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, entry, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(base, entry, "size")) as fh:
                    size = fh.read().strip()
            except OSError:
                continue
            if kind != "Instruction":
                out[f"L{level}"] = size
    return out


def source_fingerprint(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip()


def blas_facts() -> list[dict]:
    """Every loaded BLAS library with its thread count, read from the process map."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.split()[-1].rsplit("/", 1)[-1].lower()})
    facts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            facts.append({"library": os.path.basename(path), "threads": threads})
    return facts
