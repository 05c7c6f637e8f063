"""Small shared helpers."""

import os
import threading
from collections.abc import Sequence
from pathlib import Path

# bytes one block of a blocked kernel may touch: half of a 2 MiB per-core L2,
# leaving the rest for the operands the block is formed from
_CACHE_BLOCK_BYTES = 1 << 20


def block_rows(row_bytes: int, rows: int) -> int:
    """Rows per block of a kernel whose blocks cost `row_bytes` a row: as
    many of `rows` as fit in the cache budget, and at least one."""
    return max(1, min(rows, _CACHE_BLOCK_BYTES // row_bytes))


def atomic_write(path, data: bytes | str | Sequence) -> None:
    """Write `data` to `path` whole: bytes, text in the default encoding, or
    a sequence of bytes-like chunks (bytes, memoryviews, C-contiguous
    arrays) written in order, so a large file is never joined in memory.

    The data goes to a temporary file in the same directory, which then
    replaces `path` in one `os.replace`. If anything fails, the temporary
    file is removed and whatever was at `path` before is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    chunks = [data] if isinstance(data, (bytes, str)) else data
    try:
        with open(tmp, "w" if isinstance(data, str) else "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
