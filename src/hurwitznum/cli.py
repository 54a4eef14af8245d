"""Command-line front end: compute, cross-validate, and persist counts.

Subcommands:

* ``check``: parse a family datum, verify the compatibility relation, and
  report lengths, Euler characteristics, and coincident-partition flags.
* ``count``: compute the weak count for one datum by the closed formula,
  the witness enumeration, the brute-force oracle, or all of them with an
  agreement verdict.
* ``table``: print the full genus-0 reference table at k = 8 (21 rows:
  partition, case label, count, witnesses).
* ``sweep``: run every in-scope datum up to a degree bound through all
  available paths, report discrepancies, and cache results as JSON lines.

Exit codes: 0 success, 1 usage or parse error, 2 cross-validation
discrepancy, 3 infeasible degree, 4 cache I/O error.  All timings go to
stderr so stdout is byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import formulas as F
from . import oracle as O
from . import witnesses as W
from .branchdata import (
    BranchDatum,
    MalformedDatumError,
    family_data,
    coincident_partitions,
    datum_coincidences,
    format_partition,
    make_family_datum,
    parse_partition,
    partitions_of,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISCREPANCY = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

CACHE_ENV = "HURWITZ_CACHE"
CACHE_VERSION = 1

# The convention selected by calibrate_convention on the default suite; see
# DEFAULT_CALIBRATION_SUITE, whose entries pin both move axes.
DEFAULT_CONVENTION = O.FULL_MOVES

DEFAULT_CALIBRATION_SUITE: list[tuple[BranchDatum, int]] = [
    # Coincident-partition datum whose resolved count 3 requires the
    # reversal move (without it the oracle finds 4 classes).
    (BranchDatum(0, 12, ((2,) * 6, (5, 3, 2, 2), (5, 3, 2, 2))), 3),
    # All-slots-equal datum separating the slot-swap axis: counts are
    # 9/5/4/3 over the four conventions, and the full move group gives 3.
    (BranchDatum(1, 6, ((5, 1), (5, 1), (5, 1))), 3),
]

CONVENTIONS_BY_NAME = {
    "auto": DEFAULT_CONVENTION,
    "full": O.FULL_MOVES,
    "reflection": O.WITH_REFLECTION,
    "swaps": O.WITH_SLOT_SWAPS,
    "conjugation": O.CONJUGATION_ONLY,
}


@dataclass
class RunConfig:
    """Parsed command-line options for one invocation."""

    command: str
    genus: int = 0
    h: int = 0
    k: int = 0
    pi_text: str | None = None
    method: str = "all"
    convention: str = "auto"
    max_d: int = O.DEFAULT_DEGREE_BOUND
    threads: int = 1
    fmt: str = "text"
    cache_path: str | None = None
    force: bool = False


@dataclass
class CountResult:
    """Counts for one datum, with provenance and agreement metadata."""

    datum: BranchDatum
    nu_weak: int
    nu_strong: int | None = None
    label: str | None = None
    witnesses: list[W.DessinWitness] | None = None
    intermediates: dict[str, int] | None = None
    convention: str = DEFAULT_CONVENTION.label()
    elapsed: float = 0.0
    per_method: dict[str, int] = field(default_factory=dict)

    @property
    def discrepant(self) -> bool:
        return len(set(self.per_method.values())) > 1

    def to_json(self) -> dict:
        out: dict = {
            "datum": self.datum.to_json(),
            "nu_weak": self.nu_weak,
            "convention": self.convention,
            "per_method": dict(self.per_method),
            "discrepant": self.discrepant,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }
        if self.nu_strong is not None:
            out["nu_strong"] = self.nu_strong
        if self.label is not None:
            out["label"] = self.label
        if self.witnesses is not None:
            out["witnesses"] = [w.to_json() for w in self.witnesses]
        if self.intermediates is not None:
            out["intermediates"] = dict(self.intermediates)
        return out


class _Parser(argparse.ArgumentParser):
    """argparse normally exits with status 2 on bad usage; this tool
    reserves 2 for cross-validation discrepancies, so remap to 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="hurwitz", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_datum_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--genus", "-g", type=int, required=True, help="source genus g")
        p.add_argument("--h", type=int, required=True, help="family parameter h")
        p.add_argument("--k", type=int, required=True, help="half-degree k (d = 2k)")
        p.add_argument(
            "--pi",
            help="free partition, e.g. '14,1,1' or '[5,3,2^2]' "
            "(defaults to the single part 2k when the shape allows)",
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("text", "json", "csv"),
            default="text",
            help="output format",
        )
        p.add_argument("--threads", type=int, default=1, help="oracle thread count")
        p.add_argument(
            "--convention",
            choices=sorted(CONVENTIONS_BY_NAME),
            default="auto",
            help="weak-equivalence move set (auto = calibrated default)",
        )
        p.add_argument(
            "--max-d",
            type=int,
            default=O.DEFAULT_DEGREE_BOUND,
            help="oracle feasibility bound on the degree",
        )

    p_check = sub.add_parser("check", help="validate a datum and report structure")
    add_datum_flags(p_check)
    add_common(p_check)

    p_count = sub.add_parser("count", help="compute the weak count for one datum")
    add_datum_flags(p_count)
    add_common(p_count)
    p_count.add_argument(
        "--method",
        choices=("formula", "oracle", "witnesses", "all"),
        default="all",
        help="which computation path(s) to run",
    )

    p_table = sub.add_parser("table", help="print the k=8 genus-0 reference table")
    p_table.add_argument("table_id", nargs="?", type=int, default=1, help="table number")
    add_common(p_table)

    p_sweep = sub.add_parser("sweep", help="cross-validate every datum up to a bound")
    add_common(p_sweep)
    p_sweep.add_argument("--cache", dest="cache_path", help="JSON-lines cache file")
    p_sweep.add_argument(
        "--force", action="store_true", help="recompute even when cached"
    )

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("genus", "h", "k", "fmt", "threads", "convention", "max_d"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "pi"):
        cfg.pi_text = args.pi
    if hasattr(args, "method"):
        cfg.method = args.method
    if hasattr(args, "cache_path"):
        cfg.cache_path = args.cache_path
    if hasattr(args, "force"):
        cfg.force = args.force
    if cfg.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {cfg.threads}")
    return cfg


def _datum_from_config(cfg: RunConfig) -> tuple[BranchDatum, tuple[int, ...]]:
    if cfg.pi_text is not None:
        pi = parse_partition(cfg.pi_text)
    elif cfg.h - 2 * cfg.genus + 2 > 1:
        raise MalformedDatumError(
            f"--pi is required for this shape (expected {cfg.h - 2 * cfg.genus + 2} parts)"
        )
    else:
        # One part, or none when h is below the compatibility window, which
        # make_family_datum then reports.
        pi = (2 * cfg.k,)
    return make_family_datum(cfg.genus, cfg.h, cfg.k, pi), pi


def _convention(cfg: RunConfig) -> O.WeakConvention:
    return CONVENTIONS_BY_NAME[cfg.convention]


def cmd_check(cfg: RunConfig) -> int:
    datum, _pi = _datum_from_config(cfg)
    possible = coincident_partitions(cfg.genus, cfg.h, cfg.k)
    actual = datum_coincidences(datum)
    resolution = W.coincident_resolution(datum)
    if cfg.fmt == "json":
        print(
            json.dumps(
                {
                    "datum": datum.to_json(),
                    "compatible": True,
                    "lengths": list(datum.lengths),
                    "euler_source": datum.euler_source(),
                    "possible_coincidences": [c.value for c in possible],
                    "actual_coincidences": [c.value for c in actual],
                    "resolved_nu": resolution,
                },
                sort_keys=True,
            )
        )
        return EXIT_OK
    print(f"datum: {datum}")
    print("compatible: yes")
    print(f"lengths: {','.join(str(n) for n in datum.lengths)}")
    print(f"euler characteristic of source: {datum.euler_source()}")
    print(
        "possible coincidences: "
        + (",".join(c.value for c in possible) if possible else "none")
    )
    print(
        "actual coincidences: "
        + (",".join(c.value for c in actual) if actual else "none")
    )
    if resolution is not None:
        print(f"resolved count for this coincident datum: {resolution}")
    return EXIT_OK


def _compute_count(cfg: RunConfig) -> CountResult:
    datum, pi = _datum_from_config(cfg)
    conv = _convention(cfg)
    started = time.perf_counter()
    result = CountResult(datum=datum, nu_weak=0, convention=conv.label())

    methods = (
        ("formula", "witnesses", "oracle") if cfg.method == "all" else (cfg.method,)
    )
    for method in methods:
        if method == "formula":
            fr = F.nu_for_family(cfg.genus, cfg.h, cfg.k, pi)
            result.label = fr.label
            result.intermediates = fr.intermediates
            result.per_method["formula"] = fr.nu
        elif method == "witnesses":
            if (cfg.genus, cfg.h) not in W.FAMILIES:
                if cfg.method != "all":
                    raise ValueError(
                        f"no witness families for (g={cfg.genus}, h={cfg.h})"
                    )
                continue
            ws = W.enumerate_witnesses(cfg.genus, cfg.h, cfg.k, pi)
            result.witnesses = ws
            result.per_method["witnesses"] = len(ws)
        else:
            if cfg.method == "all" and datum.degree > cfg.max_d:
                continue
            result.nu_strong = O.strong_hurwitz(
                datum, threads=cfg.threads, degree_bound=cfg.max_d
            )
            result.per_method["oracle"] = O.weak_hurwitz(
                datum, conv, threads=cfg.threads, degree_bound=cfg.max_d
            )
    result.nu_weak = result.per_method[
        "oracle" if "oracle" in result.per_method else methods[0]
    ]
    result.elapsed = time.perf_counter() - started
    return result


def cmd_count(cfg: RunConfig) -> int:
    result = _compute_count(cfg)
    print(f"elapsed: {result.elapsed * 1000:.1f} ms", file=sys.stderr)
    if cfg.fmt == "json":
        print(json.dumps(result.to_json(), sort_keys=True))
    else:
        print(f"datum: {result.datum}")
        print(f"convention: {result.convention}")
        if "formula" in result.per_method:
            suffix = f"  [case {result.label}]" if result.label else ""
            print(f"nu (formula): {result.per_method['formula']}{suffix}")
        if "witnesses" in result.per_method:
            ws = " ".join(w.text() for w in result.witnesses or []) or "-"
            print(f"nu (witnesses): {result.per_method['witnesses']}  [{ws}]")
        if "oracle" in result.per_method:
            print(
                f"nu (oracle): {result.per_method['oracle']}"
                f"  [strong {result.nu_strong}]"
            )
        print(f"nu: {result.nu_weak}")
        if cfg.method == "all":
            print("agreement: " + ("NO - DISCREPANT" if result.discrepant else "yes"))
    return EXIT_DISCREPANCY if result.discrepant else EXIT_OK


def table_rows(k: int = 8) -> list[tuple[str, str, int, list[str]]]:
    """The reference-table rows: (partition text, case, count, witnesses)."""
    rows = []
    for pi in partitions_of(2 * k, length=3):
        fr = F.nu_genus0(1, k, pi)
        ws = [w.text() for w in W.enumerate_witnesses(0, 1, k, pi)]
        pi_text = "(" + ",".join(str(x) for x in pi) + ")"
        rows.append((pi_text, fr.label or "", fr.nu, ws))
    return rows


def render_table(fmt: str = "text") -> str:
    """The k=8 reference table as one deterministic string."""
    rows = table_rows()
    if fmt == "json":
        return (
            json.dumps(
                {
                    "table": 1,
                    "k": 8,
                    "rows": [
                        {"pi": p, "case": c, "nu": n, "realizations": ws}
                        for p, c, n, ws in rows
                    ],
                },
                sort_keys=True,
            )
            + "\n"
        )
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["pi", "case", "nu", "realizations"])
        for p, c, n, ws in rows:
            writer.writerow([p, c, n, ";".join(ws)])
        return buf.getvalue()
    lines = [f"{'pi':<12}{'case':<8}{'nu':<4}realizations"]
    for p, c, n, ws in rows:
        lines.append(f"{p:<12}{c:<8}{n:<4}{' '.join(ws) if ws else '-'}")
    return "\n".join(lines) + "\n"


def cmd_table(cfg: RunConfig, table_id: int = 1) -> int:
    if table_id != 1:
        print(f"unknown table id {table_id}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(render_table(cfg.fmt))
    return EXIT_OK


def _cache_path(cfg: RunConfig) -> str | None:
    return cfg.cache_path or os.environ.get(CACHE_ENV)


def _cache_key(datum: BranchDatum, method: str, convention: str) -> str:
    return json.dumps(
        {
            "datum": datum.to_json(),
            "method": method,
            "convention": convention,
            "version": CACHE_VERSION,
        },
        sort_keys=True,
    )


def _load_cache(path: str) -> tuple[dict[str, int], int]:
    """The cached counts by key, and the number of lines skipped because
    they are not a current-version entry with a datum, a method, a
    convention and an integer ``nu``."""
    cache: dict[str, int] = {}
    skipped = 0
    if not os.path.exists(path):
        return cache, skipped
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = _cache_key(
                    BranchDatum.from_json(entry["datum"]),
                    entry["method"],
                    entry["convention"],
                )
                usable = type(entry["nu"]) is int and entry.get("version") == CACHE_VERSION
            except (KeyError, TypeError, ValueError):
                usable = False
            if not usable:
                skipped += 1
                continue
            cache[key] = entry["nu"]
    return cache, skipped


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.max_d > O.DEFAULT_DEGREE_BOUND:
        print(
            f"sweep bound d={cfg.max_d} exceeds the oracle feasibility bound "
            f"{O.DEFAULT_DEGREE_BOUND}",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    conv = _convention(cfg)
    path = _cache_path(cfg)
    cache: dict[str, int] = {}
    if path is not None:
        try:
            cache, skipped = _load_cache(path)
        except OSError as exc:
            print(f"cache read failed: {exc}", file=sys.stderr)
            return EXIT_IO
        if skipped:
            print(f"cache: skipped {skipped} unusable lines in {path}", file=sys.stderr)

    started = time.perf_counter()
    computed = 0
    reused = 0
    stack = contextlib.ExitStack()
    sink = None  # the cache file, opened for append on the first new entry

    def run(datum: BranchDatum, method: str, convention: str, compute) -> int:
        nonlocal computed, reused, sink
        key = _cache_key(datum, method, convention)
        if not cfg.force and key in cache:
            reused += 1
            return cache[key]
        nu = compute()
        computed += 1
        cache[key] = nu
        if path is not None:
            # Written and flushed at once, so an interrupted sweep keeps
            # every entry it computed.
            if sink is None:
                sink = stack.enter_context(open(path, "a", encoding="utf-8"))
            entry = {
                "datum": datum.to_json(),
                "method": method,
                "nu": nu,
                "convention": convention,
                "version": CACHE_VERSION,
            }
            sink.write(json.dumps(entry, sort_keys=True) + "\n")
            sink.flush()
        return nu

    per_shape: dict[tuple[int, int], list[int]] = {}
    discrepancies: list[str] = []
    records = []
    try:
        with stack:
            for params, datum in family_data(cfg.max_d):
                values: dict[str, int] = {}
                values["formula"] = run(
                    datum,
                    "formula",
                    "-",
                    lambda: F.nu_for_family(params.g, params.h, params.k, params.pi).nu,
                )
                if (params.g, params.h) in W.FAMILIES:
                    values["witnesses"] = run(
                        datum,
                        "witnesses",
                        "-",
                        lambda: len(
                            W.enumerate_witnesses(params.g, params.h, params.k, params.pi)
                        ),
                    )
                values["oracle"] = run(
                    datum,
                    "oracle",
                    conv.label(),
                    lambda: O.weak_hurwitz(
                        datum, conv, threads=cfg.threads, degree_bound=cfg.max_d
                    ),
                )
                ok = len(set(values.values())) == 1
                shape = (params.g, params.h)
                per_shape.setdefault(shape, [0, 0])
                per_shape[shape][0] += 1
                if not ok:
                    per_shape[shape][1] += 1
                    detail = " ".join(f"{m}={v}" for m, v in sorted(values.items()))
                    discrepancies.append(f"DISCREPANT {datum}: {detail}")
                records.append(
                    {
                        "datum": datum.to_json(),
                        "values": values,
                        "ok": ok,
                    }
                )
    except OSError as exc:
        print(f"cache write failed: {exc}", file=sys.stderr)
        return EXIT_IO

    elapsed = time.perf_counter() - started
    print(
        f"elapsed: {elapsed * 1000:.1f} ms ({computed} computed, {reused} cached)",
        file=sys.stderr,
    )
    total = sum(n for n, _ in per_shape.values())
    bad = sum(b for _, b in per_shape.values())
    if cfg.fmt == "json":
        print(
            json.dumps(
                {
                    "max_d": cfg.max_d,
                    "convention": conv.label(),
                    "data": records,
                    "total": total,
                    "discrepancies": bad,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"sweep: max_d={cfg.max_d} convention={conv.label()}")
        for (g, h), (n, b) in sorted(per_shape.items()):
            print(f"(g={g},h={h}): {n} data, {b} discrepancies")
        for line in discrepancies:
            print(line)
        print(f"total: {total} data, {bad} discrepancies")
    return EXIT_DISCREPANCY if bad else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "check":
            return cmd_check(cfg)
        if cfg.command == "count":
            return cmd_count(cfg)
        if cfg.command == "table":
            return cmd_table(cfg, getattr(args, "table_id", 1))
        return cmd_sweep(cfg)
    except O.InfeasibleDegreeError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (MalformedDatumError, O.IncompatibleDatumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
