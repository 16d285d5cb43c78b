"""Loader of the compiled super-step, ``superstep.c`` (DESIGN.md §16).

Build-if-``cc``-present, once per machine.  The first :func:`library` call
of a process decides, for the life of that process, whether local-move
blocks run in C or in NumPy — results are bit-identical either way, so the
decision is reported (:func:`status`), never configured.  The one switch,
``REPRO_NO_NATIVE=1``, exists for the test matrix and for diagnosis; worker
ranks inherit it with the environment.

The shared library is cached under the user cache directory (the temp
directory when that is unusable) in a directory created ``0700`` and
refused unless this user owns it and no one else may write it.  Its name
carries a hash of the source, the compiler path, the flags, the NumPy
version and the machine, so a change to any of them builds afresh.  A build
goes to a temporary name, must reproduce the NumPy block bit for bit
(:func:`repro.kernels.superstep.self_test`) and is only then published with
``os.replace`` — concurrent builders each publish a complete, tested file,
and a cache hit never starts a compiler.

Every way of not getting a library — the switch, no compiler, a failed
build or self-test, an unusable cache — falls back to the NumPy block with
the reason recorded; each resolution emits one ``engine.native`` event to
the process's worker log (``REPRO_TRACE_DIR``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["ENV_VAR", "FLAGS", "SOURCE", "describe", "library", "reset", "status"]

ENV_VAR = "REPRO_NO_NATIVE"

#: No ``-ffast-math`` / ``-march=native``: the C loop must round exactly as
#: the NumPy block does (no fused multiply-add, no reassociation).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

SOURCE = Path(__file__).with_name("superstep.c")

_decided: tuple | None = None  # (library or None, status), once per process


def library():
    """The loaded super-step library, or None: blocks then run in NumPy."""
    global _decided
    if _decided is None:
        from repro.obs.events import worker_log

        # the self-test builds samplers, which ask for the library: they
        # get "none yet" while the one build of this process is under way
        _decided = (None, {"active": False, "reason": "resolving"})
        _decided = _resolve()
        worker_log().emit("engine.native", **_decided[1])
    return _decided[0]


def status() -> dict:
    """``active``, ``reason``, ``compiler``, ``flags``, ``cache``,
    ``source_hash`` of this process's resolution."""
    library()
    return dict(_decided[1])


def describe(info: dict | None = None) -> str:
    """``"native"`` or ``"numpy (<reason>)"`` — the ``superstep`` entry of
    manifests, checkpoints and reports — for this process, or for a
    recorded :func:`status` (an ``engine.native`` event)."""
    info = status() if info is None else info
    return "native" if info.get("active") else f"numpy ({info.get('reason', '?')})"


def reset() -> None:
    """Forget the resolution; the next :func:`library` call reads the
    environment again (tests switching paths)."""
    global _decided
    _decided = None


def _resolve() -> tuple:
    info = {"active": False, "reason": "", "compiler": None,
            "flags": " ".join(FLAGS), "cache": None, "source_hash": None}
    try:
        if os.environ.get(ENV_VAR, "").strip() not in ("", "0"):
            raise RuntimeError(f"{ENV_VAR} is set")
        if os.name != "posix":
            raise RuntimeError("not a POSIX platform")
        compiler = (shutil.which("cc") or shutil.which("gcc")
                    or shutil.which("clang"))
        if compiler is None:
            raise RuntimeError("no C compiler on PATH")
        key = hashlib.sha256("\0".join(
            [SOURCE.read_text(), compiler, *FLAGS, np.__version__,
             platform.machine()]).encode()).hexdigest()[:16]
        info.update(compiler=compiler, source_hash=key)
        path = _cache_dir() / f"superstep-{key}.so"
        info["cache"] = str(path)
        lib = _load(path) if path.exists() else _build(compiler, path)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        info["reason"] = str(exc) or type(exc).__name__
        return None, info
    info.update(active=True, reason="ok")
    return lib, info


def _cache_dir() -> Path:
    """A directory private to this user, created if missing."""
    uid = os.getuid()
    home_cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    candidates = [Path(home_cache) / "repro-native",
                  Path(tempfile.gettempdir()) / f"repro-native-{uid}"]
    for directory in candidates:
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            found = directory.lstat()
        except OSError:
            continue
        if (stat.S_ISDIR(found.st_mode) and found.st_uid == uid
                and not found.st_mode & 0o022 and os.access(directory, os.W_OK)):
            return directory
    raise OSError("no private writable cache directory for the native library")


def _load(path):
    from repro.kernels.superstep import declare

    return declare(ctypes.CDLL(str(path)))


def _build(compiler: str, path: Path):
    """Compile to a temporary name, self-test, then publish atomically."""
    from repro.kernels.superstep import self_test

    fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True, timeout=300)
        if done.returncode:
            raise RuntimeError(f"build failed: {done.stderr.strip()[-300:]}")
        lib = _load(tmp)
        self_test(lib)
        os.replace(tmp, path)
        return lib
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
