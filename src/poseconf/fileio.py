"""Atomic file writes.

Every output file is written under a temporary name in its own directory
and renamed over the target once complete, so an interrupted or failed
write leaves either the previous file or none, never a truncated one.
"""

from __future__ import annotations

import contextlib
import os
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_open(path: str | os.PathLike, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open `path` for writing through a temporary file beside it.

    On a clean exit the temporary file replaces `path` (`os.replace`); if
    the body raises, the temporary file is removed and `path` is untouched.
    The rename guards against an interrupted process, not against a power
    loss: nothing is fsynced.  `mode` ("w" or "wb") and `kwargs` go to `open`.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        # "x" refuses an existing name; the file gets the usual umask permissions
        fh = open(tmp, mode.replace("w", "x"), **kwargs)
    except OSError as exc:  # name the file the caller asked for, not the temporary one
        exc.filename = path
        raise
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # as above; the temporary file is removed below
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:  # an interrupt too: the temporary file must not stay behind
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
