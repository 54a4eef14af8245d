"""Command-line front end: compute, cross-validate, and persist counts.

Subcommands:

* ``check``: parse a family datum, verify the compatibility relation, and
  report lengths, Euler characteristics, and coincident-partition flags.
* ``count``: compute the weak count for one datum along the ``ROUTES``, the
  closed formula, the witness enumeration and the brute-force oracle.  One
  rule, shared with ``sweep``, decides which routes can count a datum (the
  formula and the witnesses: full-convention classes of the shapes they
  cover; the oracle: up to ``--max-d`` and ``oracle.HARD_DEGREE_CAP``).
  ``--method X`` runs X or says why it cannot; ``--method all`` runs every
  route that can, with an agreement verdict, and exits 3 when none can.
* ``table``: print the full genus-0 reference table at k = 8 (21 rows:
  partition, case label, count, witnesses).
* ``sweep``: run every in-scope datum up to a degree bound through all
  available paths, under the full convention, and report discrepancies.
  Only the oracle counts are cached, as JSON lines; formulas and witnesses
  are recomputed on every run, so a warm cache cannot hide a change to them.
  A cached count that disagrees with them is recomputed before a
  discrepancy is reported.

Each subcommand accepts only the flags it reads.

Exit codes: 0 success, 1 usage or parse error, 2 cross-validation
discrepancy, 3 infeasible degree, 4 cache I/O error.  All timings go to
stderr so stdout is byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import zlib

from . import formulas as F
from . import oracle as O
from . import witnesses as W
from .branchdata import (
    FORMULA_SHAPES,
    BranchDatum,
    FamilyParams,
    MalformedDatumError,
    check_family_params,
    family_data,
    family_parts,
    coincident_partitions,
    datum_coincidences,
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
# A cache line of this many bytes or more, its newline not counted, is
# skipped without being held whole; an entry at the oracle's degree cap
# takes under 400.
CACHE_LINE_LIMIT = 4096

CONVENTIONS_BY_NAME = {
    "full": O.FULL_MOVES,
    "reflection": O.WITH_REFLECTION,
    "swaps": O.WITH_SLOT_SWAPS,
    "conjugation": O.CONJUGATION_ONLY,
}

# The three independent ways to count a family datum, in ``count``'s order.
ROUTES = ("formula", "witnesses", "oracle")


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

    def add_format(p: argparse.ArgumentParser, *choices: str) -> None:
        p.add_argument(
            "--format", choices=("text", "json", *choices), default="text",
            help="output format",
        )

    def add_max_d(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-d",
            type=int,
            default=16,
            help="largest degree to run the oracle on (default %(default)s; "
            f"the oracle itself stops at HARD_DEGREE_CAP = {O.HARD_DEGREE_CAP})",
        )

    p_check = sub.add_parser("check", help="validate a datum and report structure")
    p_check.set_defaults(run=cmd_check)
    p_count = sub.add_parser("count", help="compute the weak count for one datum")
    p_count.set_defaults(run=cmd_count)
    for p in (p_check, p_count):
        p.add_argument("--genus", "-g", type=int, required=True, help="source genus g")
        p.add_argument("--h", type=int, required=True, help="family parameter h")
        p.add_argument("--k", type=int, required=True, help="half-degree k (d = 2k)")
        p.add_argument(
            "--pi",
            help="free partition, e.g. '14,1,1' or '[5,3,2^2]' "
            "(defaults to the single part 2k when the shape allows)",
        )
        add_format(p)
    p_count.add_argument(
        "--method",
        choices=(*ROUTES, "all"),
        default="all",
        help="which computation path(s) to run",
    )
    p_count.add_argument(
        "--convention",
        choices=sorted(CONVENTIONS_BY_NAME),
        default="full",
        help="weak-equivalence move set (default full; any other runs the oracle only)",
    )
    add_max_d(p_count)

    p_table = sub.add_parser("table", help="print the k=8 genus-0 reference table")
    p_table.set_defaults(run=cmd_table)
    add_format(p_table, "csv")

    p_sweep = sub.add_parser("sweep", help="cross-validate every datum up to a bound")
    p_sweep.set_defaults(run=cmd_sweep)
    add_format(p_sweep)
    add_max_d(p_sweep)
    p_sweep.add_argument("--cache", help="JSON-lines cache file of oracle counts")
    p_sweep.add_argument(
        "--force", action="store_true", help="recompute even when cached"
    )

    return parser


def _datum_from_args(args: argparse.Namespace) -> tuple[FamilyParams, BranchDatum]:
    # The parameters are checked first, so that a fault in them is reported
    # rather than a missing --pi.
    check_family_params(args.genus, args.h, args.k)
    if args.pi is not None:
        pi = parse_partition(args.pi)
    elif (parts := family_parts(args.genus, args.h)) > 1:
        raise MalformedDatumError(f"--pi is required for this shape (expected {parts} parts)")
    else:
        pi = (2 * args.k,)
    params = FamilyParams(args.genus, args.h, args.k, pi)
    return params, make_family_datum(*params)


def cmd_check(args: argparse.Namespace) -> int:
    _params, datum = _datum_from_args(args)
    possible = coincident_partitions(args.genus, args.h, args.k)
    actual = datum_coincidences(datum)
    resolution = W.coincident_resolution(datum)
    if args.format == "json":
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


def _check_max_d(args: argparse.Namespace) -> None:
    if args.max_d < 1:
        raise ValueError(f"--max-d must be at least 1, got {args.max_d}")


def _refusal(
    route: str, params: FamilyParams, conv: O.WeakConvention, max_d: int
) -> Exception | None:
    """The error ``count --method route`` raises for the family datum
    ``params`` under ``conv``, or None when the route can count it.
    ``count --method all`` and ``sweep`` run the routes that return None."""
    g, h, k, _pi = params
    if route == "oracle":
        if 2 * k > max_d:
            return O.InfeasibleDegreeError(f"degree {2 * k} exceeds --max-d {max_d}")
        if 2 * k > O.HARD_DEGREE_CAP:
            return O.InfeasibleDegreeError(
                f"degree {2 * k} exceeds the oracle's cap HARD_DEGREE_CAP = "
                f"{O.HARD_DEGREE_CAP}"
            )
        return None
    # The formula and the witnesses count the full convention's classes.
    if conv is not O.FULL_MOVES:
        return ValueError(
            f"--method {route} counts under the full convention only, "
            f"not {conv.label()}; use --method oracle"
        )
    if route == "formula":
        if (g, h) not in FORMULA_SHAPES:
            return ValueError(f"no closed form for (g={g}, h={h})")
    elif (g, h) not in W.FAMILIES:
        return ValueError(f"no witness families for (g={g}, h={h})")
    elif g == 2 and k > W.MAX_GENUS2_K:
        return O.InfeasibleDegreeError(
            f"genus-2 witnesses are listed up to k = "
            f"{W.MAX_GENUS2_K} (witnesses.MAX_GENUS2_K), got k={k}"
        )
    return None


def cmd_count(args: argparse.Namespace) -> int:
    _check_max_d(args)
    params, datum = _datum_from_args(args)
    conv = CONVENTIONS_BY_NAME[args.convention]
    started = time.perf_counter()
    wanted = ROUTES if args.method == "all" else (args.method,)
    routes = [r for r in wanted if _refusal(r, params, conv, args.max_d) is None]
    if not routes:
        if args.method != "all":
            raise _refusal(args.method, params, conv, args.max_d)
        raise O.InfeasibleDegreeError(
            f"no route can count {datum} under {conv.label()}: no closed form or witness "
            f"family counts it, and degree {datum.degree} exceeds the oracle's bound "
            f"min(--max-d {args.max_d}, HARD_DEGREE_CAP = {O.HARD_DEGREE_CAP})"
        )
    per_method: dict[str, int] = {}
    blob: dict = {"datum": datum.to_json(), "convention": conv.label()}
    lines = [f"datum: {datum}", f"convention: {conv.label()}"]
    for route in routes:
        if route == "formula":
            fr = F.nu_for_family(*params)
            nu = fr.nu
            blob["intermediates"] = fr.intermediates
            if fr.label is not None:
                blob["label"] = fr.label
            detail = f"  [case {fr.label}]" if fr.label else ""
        elif route == "witnesses":
            ws = W.enumerate_witnesses(*params)
            nu = len(ws)
            blob["witnesses"] = [w.to_json() for w in ws]
            detail = f"  [{' '.join(w.text() for w in ws) or '-'}]"
        else:
            strong = blob["nu_strong"] = O.strong_hurwitz(datum)
            nu = O.weak_hurwitz(datum, conv)
            detail = f"  [strong {strong}]"
        per_method[route] = nu
        lines.append(f"nu ({route}): {nu}{detail}")
    nu_weak = per_method.get("oracle", per_method[routes[0]])
    discrepant = len(set(per_method.values())) > 1
    print(f"elapsed: {(time.perf_counter() - started) * 1000:.1f} ms", file=sys.stderr)
    if args.format == "json":
        blob.update(nu_weak=nu_weak, per_method=per_method, discrepant=discrepant)
        print(json.dumps(blob, sort_keys=True))
    else:
        lines.append(f"nu: {nu_weak}")
        if args.method == "all":
            if len(routes) == 1:
                verdict = f"n/a ({routes[0]} only)"
            else:
                verdict = "NO - DISCREPANT" if discrepant else "yes"
            lines.append(f"agreement: {verdict}")
        print("\n".join(lines))
    return EXIT_DISCREPANCY if discrepant else EXIT_OK


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
        import csv  # only this format needs it, so other commands start faster

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


def cmd_table(args: argparse.Namespace) -> int:
    sys.stdout.write(render_table(args.format))
    return EXIT_OK


def _cache_version() -> str:
    """A short hash of the sources that decide an oracle count
    (``_purekernels.py`` holds the kernel ``API``), so a cache entry written
    by other code is skipped rather than trusted."""
    # CRC-32 rather than hashlib, whose import loads OpenSSL and adds about
    # 3.5 MB to the peak RSS of every run.  os.path rather than pathlib,
    # whose import (with urllib.parse and ipaddress) would add a few
    # milliseconds to the start-up of every command.
    crc = 0
    here = os.path.dirname(__file__)
    for name in ("oracle.py", "perm.py", "_purekernels.py"):
        with open(os.path.join(here, name), "rb") as fh:
            crc = zlib.crc32(fh.read(), crc)
    return f"{crc:08x}"


def _load_cache(path: str, version: str) -> tuple[dict[BranchDatum, int], int]:
    """The cached oracle counts by datum, and the number of lines skipped
    because they are not an entry of this ``version`` with a datum and a
    non-negative integer ``nu``.  A line of ``CACHE_LINE_LIMIT`` bytes or
    more is skipped without being held whole.  A path that exists but is not
    a regular file, such as ``/dev/full`` with its endless line, is refused
    unopened."""
    cache: dict[BranchDatum, int] = {}
    skipped = 0
    if not os.path.exists(path):
        return cache, skipped
    if not os.path.isfile(path):
        raise OSError(f"{path}: not a regular file")
    with open(path, "rb") as fh:
        while line := fh.readline(CACHE_LINE_LIMIT):
            if len(line) == CACHE_LINE_LIMIT and not line.endswith(b"\n"):
                while (rest := fh.readline(CACHE_LINE_LIMIT)) and not rest.endswith(b"\n"):
                    pass
                skipped += 1
                continue
            line = line.strip()
            if not line:
                continue
            try:
                # UnicodeDecodeError is a ValueError; a deeply nested line
                # makes the decoder raise RecursionError.
                entry = json.loads(line.decode("utf-8"))
                datum = BranchDatum.from_json(entry["datum"])
                nu = entry["nu"]
                if type(nu) is int and nu >= 0 and entry["version"] == version:
                    cache[datum] = nu
                    continue
            except (KeyError, TypeError, ValueError, RecursionError):
                pass
            skipped += 1
    return cache, skipped


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_max_d(args)
    if args.max_d > O.HARD_DEGREE_CAP:
        # Refused up front: the oracle would refuse only after every datum
        # below the cap.
        raise O.InfeasibleDegreeError(
            f"sweep bound d={args.max_d} exceeds the oracle feasibility cap "
            f"HARD_DEGREE_CAP = {O.HARD_DEGREE_CAP}"
        )
    data = family_data(args.max_d)
    if not data:  # a sweep over no datum would report a vacuous pass
        smallest = min(datum.degree for _params, datum in family_data(O.HARD_DEGREE_CAP))
        raise ValueError(f"--max-d {args.max_d} is below the smallest family degree {smallest}")
    conv = O.FULL_MOVES  # the convention the formula and the witnesses count
    label = conv.label()
    path = args.cache or os.environ.get(CACHE_ENV) or None
    cache: dict[BranchDatum, int] = {}
    if path is not None:
        try:
            version = _cache_version()
            cache, skipped = _load_cache(path, version)
        except OSError as exc:
            print(f"cache read failed: {exc}", file=sys.stderr)
            return EXIT_IO
        if skipped:
            print(f"cache: skipped {skipped} unusable lines in {path}", file=sys.stderr)

    started = time.perf_counter()
    computed = 0
    reused = 0
    per_shape: dict[tuple[int, int], list[int]] = {}
    discrepancies: list[str] = []
    records = []
    try:
        with contextlib.ExitStack() as stack:
            sink = None  # the cache file, opened for append on the first new entry
            for params, datum in data:
                values: dict[str, int] = {}
                if _refusal("formula", params, conv, args.max_d) is None:
                    values["formula"] = F.nu_for_family(*params).nu
                if _refusal("witnesses", params, conv, args.max_d) is None:
                    values["witnesses"] = len(W.enumerate_witnesses(*params))
                # A cached count that disagrees with the formula or the
                # witnesses is recomputed before it is reported, so a stale or
                # hand-edited line cannot invent a discrepancy.
                if (
                    not args.force
                    and datum in cache
                    and all(v == cache[datum] for v in values.values())
                ):
                    reused += 1
                else:
                    nu = O.weak_hurwitz(datum, conv)
                    computed += 1
                    # A recount that only confirms the cached line adds none,
                    # so neither a real discrepancy nor --force grows the file
                    # on every run.
                    is_new = cache.get(datum) != nu
                    cache[datum] = nu
                    if path is not None and is_new:
                        # Written and flushed at once, so an interrupted sweep
                        # keeps every entry it computed.
                        if sink is None:
                            sink = stack.enter_context(open(path, "a", encoding="utf-8"))
                        entry = {"datum": datum.to_json(), "nu": nu, "version": version}
                        sink.write(json.dumps(entry, sort_keys=True) + "\n")
                        sink.flush()
                values["oracle"] = cache[datum]
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
    total, bad = len(records), len(discrepancies)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "max_d": args.max_d,
                    "convention": label,
                    "data": records,
                    "total": total,
                    "discrepancies": bad,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"sweep: max_d={args.max_d} convention={label}")
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
        return args.run(args)
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
