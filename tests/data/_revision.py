"""Export paths of one git revision of this repository into a temporary
directory.

    with exported("HEAD~1", "src") as tree:
        ...  # tree / "src" holds src as it was at HEAD~1

It runs ``git archive`` and unpacks the archive with tarfile's ``data``
filter, which refuses absolute paths, paths that leave the directory and
links that point out of it.  When ``git`` fails (an unknown revision, a
path the revision lacks), the process exits 1 with git's own message.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


@contextmanager
def exported(rev: str, *paths: str):
    """A temporary directory holding ``paths`` (relative to the repository
    root) as they are at ``rev``; it is removed on exit."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, *paths], cwd=ROOT, capture_output=True)
    if archive.returncode:
        sys.exit(archive.stderr.decode(errors="replace").strip())
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)
