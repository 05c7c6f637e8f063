"""Small shared helpers."""

import os
import threading
from pathlib import Path

from .errors import ValidationError


def worker_count() -> int:
    """Number of worker threads for parallel-friendly operations.

    Capped by the SIMSKIP_THREADS environment variable; defaults to the
    machine's available parallelism.
    """
    raw = os.environ.get("SIMSKIP_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"SIMSKIP_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise ValidationError(f"SIMSKIP_THREADS must be >= 1, got {n}")
    return n


def atomic_write(path, data: bytes | str) -> None:
    """Write `data` (bytes, or text in the default encoding) to `path` whole.

    The data goes to a temporary file in the same directory, which then
    replaces `path` in one `os.replace`. If anything fails, the temporary
    file is removed and whatever was at `path` before is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
