"""Byte-level result cache for CLI reports.

Reports are pure functions of their run configuration, of the input
files it names and of the code that computes them, so they are cached by
the hash of the canonical configuration JSON together with the SHA-256 of
each input file's bytes, the package version and REPORT_SCHEMA.
A cache hit returns the stored bytes; recomputation with --no-cache
additionally diffs against any stored entry and flags a mismatch.

`sha256` computes every hash of the package: these keys, the input
files' hashes and the reports' `presentation_sha256`, which also names
the model pickles.  It is the constructor of the interpreter's built-in
SHA-256 module, the same FIPS 180-4 digest as OpenSSL's, so no process
of the CLI loads libcrypto (3.4 MB resident, 2.7 ms to import).
"""

import json
import os
from pathlib import Path

from . import __version__

try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

ENV_VAR = "SYMALG_CACHE_DIR"

# Version of the report layout; bump it when a report's content changes
# without a package version change, so older entries are not served.
# Version 2 dropped `seed` from the echoed config; version 3 dropped the
# flags a verify or dixmier target does not read; version 4 gives the
# hilbert report of n = 0 the free algebra's series and drops the series
# for (1,0) and (1,1); version 5 rejects the semidirect report of a
# non-orthonormal metric, which version 4 stored as ok.
REPORT_SCHEMA = 5


def cache_dir(override=None):
    if override:
        return Path(override)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "symalg"


def config_key(config, inputs):
    """The entry name of a report: `inputs` maps each input-file flag to
    the hash of the file's bytes, since the config names files by path."""
    doc = {"config": config, "inputs": inputs, "schema": REPORT_SCHEMA,
           "version": __version__}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return sha256(blob).hexdigest()


def lookup(key, directory):
    path = Path(directory) / f"{key}.json"
    if path.is_file():
        return path.read_bytes()
    return None


def write_atomic(path, write):
    """Create `path` through `write(fh)` on a temporary file beside it,
    renamed over it: readers see the old bytes or the new, never a part."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def store(key, data, directory):
    """Write an entry atomically."""
    write_atomic(Path(directory) / f"{key}.json", lambda fh: fh.write(data))
