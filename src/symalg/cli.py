"""Command-line interface: deterministic JSON reports over the library.

Subcommands: hilbert (dimension series), basis (weight-graded basis of a
truncation), verify (resolution, omega, susy, semidirect), dixmier
(Kirillov weights, polarizations, Clifford-Weyl surjections) and freegens
(free-generator series).  `symalg.reports` computes each report; this
module parses and range-checks the flags, reads each input file once,
caches the report bytes by the hash of the configuration and of the bytes
read (the same bytes the report is computed from), and renders them.
Every hash is `cache.sha256`, the interpreter's built-in SHA-256, so no
command loads OpenSSL.
Cache hits are byte-identical to recomputation (--no-cache recomputes and
diffs); an entry that is not a JSON object echoing the configuration is
recomputed and replaced.

Exit codes:
0  every requested verification passed
1  one failed (the report says "ok": false)
2  malformed input, as one `symalg: error: ...` line on stderr: a
   UsageError (flags, files, a cache directory that is not one) or one of
   the library's InputErrors, PresentationError, SurjectionError and
   SuperLieError.  Any other exception is a program bug and propagates
3  a recomputation differed from the cached report

`main()` returns the code, for in-process callers.  As a program (`python
-m symalg.cli`, or the `symalg` script) the CLI runs through `run()`: it
flushes stdout and stderr and ends the process with `os._exit(code)`.
Interpreter finalization would only tear down modules and collect
garbage, about 10 ms of every run, and nothing of a report depends on it:
the report is written and each cache file is closed and renamed into
place before `main()` returns.  The hard exit skips `atexit` callbacks;
symalg registers none.  An argparse error, `--help` or an uncaught
exception leaves `main()` as SystemExit or the exception and exits as
usual, and so does a run whose flush fails (a closed pipe).
"""

import argparse
import json
import os
import sys

from . import cache as cachemod
from . import reports
from .presentation import FREE_IDEALS, InputError, SymPresentation, preset


class UsageError(Exception):
    """Malformed command-line input; main() reports it and exits with 2."""


def _read_inputs(config):
    """The input files `config` names, each read once: the SHA-256 of each
    file's bytes, for the cache key, and the JSON parsed from the same
    bytes, for the command."""
    hashes, docs = {}, {}
    for opt in ("presentation", "algebra", "functional"):
        path = config.get(opt)
        if path is None:
            continue
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc.strerror}")
        try:
            docs[opt] = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"{path} is not JSON: {exc}")
        hashes[opt] = cachemod.sha256(data).hexdigest()
    return hashes, docs


def _load_presentation(args, docs):
    if args.preset and args.presentation:
        raise UsageError("give --preset n,s or --presentation file.json, not both")
    if args.presentation:
        return SymPresentation.from_json(docs["presentation"])
    if args.preset:
        parts = args.preset.split(",")
        if len(parts) != 2 or not all(v.strip().isdecimal() for v in parts):
            raise UsageError(
                f"--preset expects n,s with integers n, s >= 0; got {args.preset!r}"
            )
        return preset(*(int(v) for v in parts))
    raise UsageError("provide --preset n,s or --presentation file.json")


def _check_cache_dir(directory):
    """UsageError unless `directory` is a directory or can be made one,
    checked before the report is computed, since it is stored there."""
    for path in (directory, *directory.parents):
        if path.is_dir():
            return
        if path.exists() or path.is_symlink():
            raise UsageError(f"cache directory {directory}: {path} is not a directory")


def _model_cache(args):
    """The model pickle cache, its `models` directory checked like the cache
    directory; --no-cache neither reads nor writes it."""
    if args.no_cache:
        return None
    directory = cachemod.cache_dir(args.cache_dir)
    _check_cache_dir(directory / "models")
    return directory


def _at_least(flag, value, low=0):
    if value < low:
        raise UsageError(f"{flag} must be >= {low}; got {value}")
    return value


def cmd_hilbert(args, docs):
    p = _load_presentation(args, docs)
    degree = _at_least("--degree", args.degree)
    depth = _at_least("--engine-depth", args.engine_depth, 1)
    return reports.hilbert(p, degree, args.check_engine, depth)


def cmd_basis(args, docs):
    p = _load_presentation(args, docs)
    return reports.basis(p, _at_least("--l", args.l), args.check_reference_basis,
                         _model_cache(args))


def cmd_verify(args, docs):
    p = _load_presentation(args, docs)
    if args.target == "resolution":
        return reports.verify_resolution(p, _at_least("--max-weight", args.max_weight))
    return getattr(reports, f"verify_{args.target}")(p)


def cmd_dixmier(args, docs):
    if args.target == "surject":
        return reports.dixmier_surject(_load_presentation(args, docs), args.r, args.t,
                                       args.l, _model_cache(args))
    for opt in ("algebra", "functional"):
        if getattr(args, opt) is None:
            raise UsageError(f"dixmier {args.target} requires --{opt} file.json")
    from .superlie import FinDimSuperLieAlgebra, functional_from_json

    g = FinDimSuperLieAlgebra.from_json(docs["algebra"])
    f = functional_from_json(g, docs["functional"])
    return getattr(reports, f"dixmier_{args.target}")(g, f)


def cmd_freegens(args, docs):
    p = _load_presentation(args, docs)
    max_w = _at_least("--max", args.max, 1)
    return reports.freegens(p, args.ideal, max_w, _model_cache(args))


def _render_table(doc, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(doc, dict):
        width = max((len(str(k)) for k in doc), default=0)
        for k, v in doc.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_table(v, indent + 1))
            else:
                lines.append(f"{pad}{str(k).ljust(width)}  {v}")
    elif isinstance(doc, list) and any(isinstance(v, dict) for v in doc):
        # one block per item, its first line marked "- "
        for v in doc:
            block = _render_table(v, indent + 1) or [""]
            lines.append(f"{pad}- {block[0][len(pad) + 2:]}".rstrip())
            lines.extend(block[1:])
    elif isinstance(doc, list):
        lines.append(pad + "  ".join(map(_word, doc)))
    else:
        lines.append(pad + str(doc))
    return lines


def _word(v):
    """A list item as one table cell: a nested list as a bracket word,
    [x1,[x2,z1]], the name the reports use elsewhere."""
    return "[" + ",".join(map(_word, v)) + "]" if isinstance(v, list) else str(v)


def _cached_report(data, config):
    """The report a cache entry holds; None for a missing entry, and for
    one that is not a JSON object echoing `config`, which is then
    recomputed and replaced like a miss."""
    if data is None:
        return None
    try:
        report = json.loads(data)
    except (ValueError, RecursionError):
        return None
    if isinstance(report, dict) and report.get("config") == config:
        return report
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="symalg",
        description="exact computations with super Yang-Mills algebras",
    )
    ap.add_argument("--format", choices=("json", "table"), default="json")
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--no-cache", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_presentation(sp):
        sp.add_argument("--preset", default=None, help="n,s canonical presentation")
        sp.add_argument("--presentation", default=None, help="JSON file")

    sp = sub.add_parser("hilbert")
    add_presentation(sp)
    sp.add_argument("--degree", type=int, default=20)
    sp.add_argument("--check-engine", action="store_true")
    sp.add_argument("--engine-depth", type=int, default=12)
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("basis")
    add_presentation(sp)
    sp.add_argument("--l", type=int, default=7)
    sp.add_argument("--check-reference-basis", action="store_true")
    sp.set_defaults(func=cmd_basis)

    # verify and dixmier take one subparser per target, each with only the
    # flags that target reads
    sp = sub.add_parser("verify")
    sp.set_defaults(func=cmd_verify)
    targets = sp.add_subparsers(dest="target", required=True)
    sp = targets.add_parser("resolution")
    add_presentation(sp)
    sp.add_argument("--max-weight", type=int, default=10)
    for name in ("omega", "susy", "semidirect"):
        add_presentation(targets.add_parser(name))

    sp = sub.add_parser("dixmier")
    sp.set_defaults(func=cmd_dixmier)
    targets = sp.add_subparsers(dest="target", required=True)
    for name in ("weight", "polarization"):
        sp = targets.add_parser(name)
        sp.add_argument("--algebra", default=None)
        sp.add_argument("--functional", default=None)
    sp = targets.add_parser("surject")
    add_presentation(sp)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--l", type=int, default=None)

    sp = sub.add_parser("freegens")
    add_presentation(sp)
    sp.add_argument("--ideal", choices=tuple(FREE_IDEALS), default="tym-hat")
    sp.add_argument("--max", type=int, default=10)
    sp.set_defaults(func=cmd_freegens)

    args = ap.parse_args(argv)
    if args.cache_dir == "":
        # cache.cache_dir reads an empty value as no flag: the default cache
        sys.stderr.write("symalg: error: --cache-dir must name a directory\n")
        return 2
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "format", "cache_dir", "no_cache")}
    try:
        hashes, docs = _read_inputs(config)
    except UsageError as exc:
        sys.stderr.write(f"symalg: error: {exc}\n")
        return 2
    key = cachemod.config_key(config, hashes)
    cdir = cachemod.cache_dir(args.cache_dir)
    cached = cachemod.lookup(key, cdir)
    report = None if args.no_cache else _cached_report(cached, config)
    if report is not None:
        data = cached
    else:
        try:
            _check_cache_dir(cdir)
            report = args.func(args, docs)
        except (UsageError, InputError) as exc:
            sys.stderr.write(f"symalg: error: {exc}\n")
            return 2
        report["config"] = config
        data = (json.dumps(report, sort_keys=True, indent=1, default=str) + "\n").encode()
        if args.no_cache and cached is not None and data != cached:
            sys.stderr.write("cache mismatch: recomputation differs from cache\n")
            sys.stdout.write(data.decode())
            return 3
        cachemod.store(key, data, cdir)
    if args.format == "table":
        sys.stdout.write("\n".join(_render_table(report)) + "\n")
    else:
        sys.stdout.write(data.decode())
    return 0 if report.get("ok", False) else 1


def run():
    """The program's entry point: main(), then a hard exit with its code
    once stdout and stderr are flushed (see the module docstring)."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
