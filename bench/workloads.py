"""The three benchmark workloads: CLI commands, seeded inputs, references.

Each workload is one `symalg` CLI command.  `small=True` selects the tiny
sizes the smoke check runs; every other caller uses the full sizes.

* orbit-31 -- cold Kirillov-orbit surjection for (3,1), (r, t) = (1, 1):
  the Lie build at cutoff 15 plus ~3 400 `project` calls, unit
  coefficients only.
* freegens-31-warm -- tym-hat free-generator series to weight 16 on a
  model cache primed in set-up: a pickle load, then ~2 300 `struct` /
  `project` queries and no Lie build.
* resolution-gen31 -- both length-three resolutions to weight 14 for a
  seeded (3,1) presentation with general coefficients: the associative
  engine and the resolution ranks, no Lie engine.
"""

import hashlib
import json
import random
from pathlib import Path

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

ORBIT = "orbit-31"
FREEGENS = "freegens-31-warm"
RESOLUTION = "resolution-gen31"
NAMES = (ORBIT, FREEGENS, RESOLUTION)

# G^2 and G^3 of the generated presentation are drawn from +-1, +-2, +-3;
# G^1 = 1 keeps every draw nondegenerate and the first coefficient fixed.
MAGNITUDES = (1, 2, 3)

# Sizes: the orbit cutoff (None = the CLI default 2 d' + 1 = 15; 13 is the
# smallest the (1, 1) target accepts), the freegens weight and the
# resolution weight.
FULL = {"orbit_l": None, "freegens_max": 16, "resolution_max": 14}
SMALL = {"orbit_l": 13, "freegens_max": 8, "resolution_max": 8}


def sizes(small):
    return SMALL if small else FULL


def presentation(g2, g3):
    """The (3,1) presentation JSON with G = (1, g2, g3)."""
    return {
        "n": 3,
        "s": 1,
        "gamma": [[["1"]], [[str(g2)]], [[str(g3)]]],
        "metric": "orthonormal",
    }


def presentations(seed):
    """The endless stream of presentations a resolution-gen31 run uses:
    its k-th CLI process gets the k-th draw.

    The magnitudes are stratified.  Every block of three draws gives G^2
    the magnitudes 1, 2 and 3 once each, in a seeded order, and G^3 the
    same in an order of its own; each sign is drawn on its own.  So each
    draw's G^2 and G^3 are independent and uniform over {+-1, +-2, +-3},
    but a run's draws cover the magnitudes evenly.  The cost of a process
    grows with the magnitudes, so this keeps the run's median from
    following the luck of the draw."""
    rng = random.Random(seed)
    signs = (-1, 1)
    while True:
        g2s = rng.sample(MAGNITUDES, len(MAGNITUDES))
        g3s = rng.sample(MAGNITUDES, len(MAGNITUDES))
        for g2, g3 in zip(g2s, g3s):
            yield presentation(g2 * rng.choice(signs), g3 * rng.choice(signs))


def presentation_sha256(doc):
    """The hash the CLI reports, computed from the JSON independently of
    the library (canonical form: sorted keys, no whitespace)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def cli_args(name, small, presentation_file=None):
    """Arguments after `python -m symalg.cli --cache-dir DIR`."""
    size = sizes(small)
    if name == ORBIT:
        args = ["--no-cache", "dixmier", "surject", "--preset", "3,1",
                "--r", "1", "--t", "1"]
        if size["orbit_l"] is not None:
            args += ["--l", str(size["orbit_l"])]
        return args
    if name == FREEGENS:
        return ["freegens", "--ideal", "tym-hat", "--preset", "3,1",
                "--max", str(size["freegens_max"])]
    if name == RESOLUTION:
        return ["--no-cache", "verify", "resolution", "--presentation",
                str(presentation_file), "--max-weight",
                str(size["resolution_max"])]
    raise ValueError(f"unknown workload {name}")


def prime_args(small):
    """Cold `basis` run whose model pickle is the cache freegens-31-warm
    reads: same presentation and the cutoff `freegens --max M` asks for."""
    return ["basis", "--preset", "3,1",
            "--l", str(sizes(small)["freegens_max"] - 1)]


def reference(name, small, doc=None):
    """Expected report, every field except the echoed `config`."""
    if name == RESOLUTION:
        return {
            "command": "verify",
            "target": "resolution",
            "presentation_sha256": presentation_sha256(doc),
            "max_weight": sizes(small)["resolution_max"],
            "sides": {"left": "all-green", "right": "all-green"},
            "ok": True,
        }
    return REFERENCE[name]["small" if small else "full"]


def check_report(stdout, expected):
    """None if the CLI output is a report equal to `expected` (ignoring
    `config`) with ok true, else a one-line reason."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output is not a JSON report"
    if not isinstance(report, dict) or report.get("ok") is not True:
        return "report does not say ok: true"
    report.pop("config", None)
    if report != expected:
        diff = sorted(k for k in set(report) | set(expected)
                      if report.get(k) != expected.get(k))
        return f"report differs from the reference in {diff}"
    return None
