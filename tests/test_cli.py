"""Command-line behavior: formats, exit codes, caching, determinism."""

import hashlib
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from hurwitznum import cli
from hurwitznum import formulas as F
from hurwitznum import witnesses as W

GOLDEN = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_text(capsys):
    code, out, _ = run(capsys, "check", "--genus", "0", "--h", "1", "--k", "8",
                       "--pi", "14,1,1")
    assert code == 0
    assert "(g=0,d=16,[2,2,2,2,2,2,2,2],[3,3,2,2,2,2,2],[14,1,1])" in out
    assert "compatible: yes" in out
    assert "lengths: 8,7,3" in out


def test_check_json_coincident(capsys):
    code, out, _ = run(capsys, "check", "--genus", "0", "--h", "2", "--k", "6",
                       "--pi", "5,3,2,2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["actual_coincidences"] == ["pi2=pi3"]
    assert blob["resolved_nu"] == 3


def test_count_all_methods_agree(capsys):
    code, out, _ = run(capsys, "count", "--genus", "0", "--h", "2", "--k", "6",
                       "--pi", "5,4,2,1", "--method", "all")
    assert code == 0
    assert "nu (formula): 2" in out
    assert "nu (witnesses): 2" in out
    assert "nu (oracle): 2" in out
    assert "agreement: yes" in out


def test_count_single_method_formula(capsys):
    code, out, _ = run(capsys, "count", "--genus", "0", "--h", "0", "--k", "3",
                       "--pi", "3,3", "--method", "formula")
    assert code == 0
    assert "nu: 0" in out


def test_count_json_schema(capsys):
    code, out, _ = run(capsys, "count", "--genus", "1", "--h", "1", "--k", "5",
                       "--method", "all", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["nu_weak"] == 2
    assert blob["nu_strong"] == 2
    assert blob["per_method"] == {"formula": 2, "witnesses": 2, "oracle": 2}
    assert blob["discrepant"] is False
    assert blob["convention"] == "conjugation+swaps+reflection"


def test_count_discrepancy_exits_two(capsys, monkeypatch):
    # force the formula path to disagree to exercise the reporting circuit
    monkeypatch.setattr(
        cli.F,
        "nu_for_family",
        lambda g, h, k, pi: F.FormulaResult(nu=99, label="forced"),
    )
    code, out, _ = run(capsys, "count", "--genus", "0", "--h", "1", "--k", "4",
                       "--pi", "6,1,1", "--method", "all")
    assert code == 2
    assert "DISCREPANT" in out


def test_count_witnesses_out_of_scope_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "--genus", "0", "--h", "0", "--k", "3",
                       "--pi", "3,3", "--method", "witnesses")
    assert code == 1
    assert "witness" in err
    # The formula is refused the same way on a shape with no closed form.
    for g, h, k, pi in [(2, 4, 6, "7,5"), (3, 5, 8, "16")]:
        code, out, err = run(capsys, "count", "--genus", str(g), "--h", str(h),
                             "--k", str(k), "--pi", pi, "--method", "formula")
        assert code == 1
        assert out == ""
        assert f"(g={g}, h={h})" in err


def test_count_infeasible_degree(capsys):
    code, _, err = run(capsys, "count", "--genus", "0", "--h", "1", "--k", "13",
                       "--pi", "24,1,1", "--method", "oracle")
    assert code == 3
    assert "infeasible" in err


def test_genus2_witnesses_are_bounded(capsys):
    # Criterion 08 lists the genus-2 witnesses up to k = 30.
    assert 30 <= W.MAX_GENUS2_K < 1000
    argv = ("count", "--genus", "2", "--h", "3", "--k", "1000")
    code, out, err = run(capsys, *argv, "--method", "witnesses")
    assert code == 3
    assert out == ""
    assert f"k = {W.MAX_GENUS2_K}" in err
    code, out, _ = run(capsys, *argv, "--method", "all", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["per_method"] == {"formula": F.nu_genus2(1000).nu}
    assert "witnesses" not in blob


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "count", "--genus", "0", "--h", "1", "--k", "8",
               "--pi", "bogus")[0] == 1
    assert run(capsys, "count", "--genus", "0", "--h", "1", "--k", "8")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "count", "--genus", "0", "--h", "1", "--k", "8",
               "--pi", "14,1,1", "--method", "sorcery")[0] == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("count", "--genus", "7", "--h", "1", "--k", "3"),
            "h=1 is below the compatibility window h >= 2g-1 = 13",
            id="window",
        ),
        pytest.param(
            ("check", "--genus", "-1", "--h", "1", "--k", "3"),
            "parameters out of range: g=-1, h=1, k=3",
            id="genus",
        ),
        pytest.param(
            ("check", "--genus", "0", "--h", "1", "--k", "0"),
            "parameters out of range: g=0, h=1, k=0",
            id="k-range",
        ),
        pytest.param(
            ("check", "--genus", "0", "--h", "1", "--k", "2"),
            "k=2 is too small: need k >= h+2 = 3 to fit the second partition",
            id="k-room",
        ),
    ],
)
def test_missing_pi_below_window_names_the_window(capsys, argv, message):
    # Without --pi, the fault in g, h or k is reported, not the missing --pi.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--genus", "0", "--h", "1", "--k", "4", "--pi", "6,1,1",
         "--threads", "2"),
        ("check", "--genus", "0", "--h", "1", "--k", "4", "--pi", "6,1,1",
         "--max-d", "8"),
        ("table", "--convention", "swaps"),
        ("count", "--genus", "0", "--h", "1", "--k", "4", "--pi", "6,1,1",
         "--format", "csv"),
        ("sweep", "--max-d", "4", "--format", "csv"),
        ("sweep", "--max-d", "4", "--threads", "2"),
        ("count", "--genus", "0", "--h", "1", "--k", "4", "--pi", "6,1,1",
         "--convention", "auto"),
        ("sweep", "--max-d", "4", "--convention", "conjugation"),
        ("count", "--genus", "0", "--h", "1", "--k", "4", "--pi", "6,1,1",
         "--threads", "2"),
    ],
    ids=["check-threads", "check-max-d", "table-convention", "count-csv",
         "sweep-csv", "sweep-threads", "count-auto", "sweep-convention",
         "count-threads"],
)
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--genus", "1", "--h", "1", "--k", "1000000000000000000000"),
        ("check", "--genus", "0", "--h", "1", "--k", "8", "--pi", "1^100000000000000000000"),
    ],
    ids=["huge-k", "huge-pi-exponent"],
)
def test_huge_integers_are_rejected_before_allocating(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_one(capsys, threads):
    # count runs on one thread and no longer reads --threads: every value,
    # one below one included, is rejected as an unknown flag.
    code, out, err = run(capsys, "count", "--genus", "0", "--h", "1", "--k", "4",
                         "--pi", "6,1,1", "--method", "oracle", "--threads", threads)
    assert code == 1
    assert out == ""
    assert err.endswith(f"error: unrecognized arguments: --threads {threads}\n")


@pytest.mark.parametrize("max_d", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [("count", "--genus", "0", "--h", "1", "--k", "4", "--pi", "6,1,1"), ("sweep",)],
    ids=["count", "sweep"],
)
def test_max_d_below_one_exit_one(capsys, argv, max_d):
    # A sweep with no degree to cover would otherwise report a vacuous pass.
    code, out, err = run(capsys, *argv, "--max-d", max_d)
    assert code == 1
    assert out == ""
    assert err == f"error: --max-d must be at least 1, got {max_d}\n"


def test_sweep_below_the_smallest_family_degree_exit_one(capsys):
    # The smallest family datum has d = 4: a lower bound would pass on nothing.
    code, out, err = run(capsys, "sweep", "--max-d", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --max-d 3 ") and "degree 4" in err
    assert run(capsys, "sweep", "--max-d", "4")[0] == 0


def test_table_matches_golden_text(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert out == (GOLDEN / "table_k8.txt").read_text()


def test_table_matches_golden_csv(capsys):
    code, out, _ = run(capsys, "table", "--format", "csv")
    assert code == 0
    assert out == (GOLDEN / "table_k8.csv").read_text()


def test_table_json_round_trips(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["rows"]) == 21
    assert blob["rows"][0] == {
        "pi": "(14,1,1)",
        "case": "ii-a",
        "nu": 1,
        "realizations": ["I(6,1,1)"],
    }


def test_table_rejects_unknown_id(capsys):
    assert run(capsys, "table", "2")[0] == 1


def test_sweep_clean_and_idempotent(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    code1, out1, err1 = run(capsys, "sweep", "--max-d", "8",
                            "--cache", str(cache))
    assert code1 == 0
    assert "total: 28 data, 0 discrepancies" in out1
    lines = cache.read_text().splitlines()
    assert all(json.loads(line)["version"] == cli._cache_version() for line in lines)

    code2, out2, err2 = run(capsys, "sweep", "--max-d", "8",
                            "--cache", str(cache))
    assert code2 == 0
    assert out2 == out1
    assert "0 computed" in err2
    assert cache.read_text().splitlines() == lines


@pytest.mark.parametrize("fmt, digest", [
    ("text", "3e5fb6d587790ff98e888cf303934e8754f18efbfc1e0baf5baf7fd32f828f0a"),
    ("json", "7e33bedfd6e063e44d35645df8b9605ac3cea35b724d7fd92d9fead8847ef927"),
])
def test_sweep_stdout_is_frozen(capsys, tmp_path, fmt, digest):
    # Stdout is byte-deterministic; the timing line goes to stderr.
    code, out, _ = run(capsys, "sweep", "--max-d", "12", "--format", fmt,
                       "--cache", str(tmp_path / "cache.jsonl"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_counts_line_is_the_one_perfbench_parses(capsys, tmp_path):
    # perfbench/worker.py reads cli.computed and cli.cached from this line;
    # a reworded line would silently read them as zero.
    pattern = re.compile(r"\((\d+) computed, (\d+) cached\)")
    argv = ("sweep", "--max-d", "8", "--cache", str(tmp_path / "cache.jsonl"))
    for expected in [("28", "0"), ("0", "28")]:
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert pattern.search(err).groups() == expected


def test_count_and_sweep_share_the_route_rule(capsys):
    code, out, _ = run(capsys, "sweep", "--max-d", "12", "--format", "json")
    assert code == 0
    records = json.loads(out)["data"]
    assert len(records) == 98
    for rec in records:
        datum = rec["datum"]
        g, pi = datum["g"], datum["partitions"][2]
        h = len(pi) + 2 * g - 2  # len(pi) = h - 2g + 2
        code, out, _ = run(capsys, "count", "--genus", str(g), "--h", str(h),
                           "--k", str(datum["d"] // 2), "--pi", ",".join(map(str, pi)),
                           "--method", "all", "--format", "json")
        assert code == 0
        assert json.loads(out)["per_method"] == rec["values"], datum


def test_sweep_force_recomputes(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    n = len(cache.read_text().splitlines())
    _, _, err = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache),
                    "--force")
    assert "0 cached" in err
    # A forced recount of an intact cache appends nothing.
    lines = cache.read_text().splitlines()
    assert len(lines) == n
    entry = json.loads(lines[0])
    entry["nu"] += 1
    cache.write_text("\n".join([json.dumps(entry, sort_keys=True)] + lines[1:]) + "\n")
    run(capsys, "sweep", "--max-d", "6", "--cache", str(cache), "--force")
    assert len(cache.read_text().splitlines()) == n + 1
    _, _, err = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    assert "(0 computed," in err


def test_sweep_ignores_corrupt_cache_lines(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("not json\n" + json.dumps({"version": 99}) + "\n")
    code, out, _ = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    assert code == 0
    assert "0 discrepancies" in out


@pytest.mark.parametrize(
    "line",
    [
        json.dumps({"version": 1, "method": "formula"}).encode(),
        b"[1, 2]",
        # an entry in the format of cache version 1
        json.dumps(
            {
                "convention": "conjugation+swaps+reflection",
                "datum": {"d": 4, "g": 0, "partitions": [[2, 2], [3, 1], [3, 1]]},
                "method": "oracle",
                "nu": 99,
                "version": 1,
            },
            sort_keys=True,
        ).encode(),
        pytest.param(
            json.dumps(
                {
                    "convention": "conjugation+swaps+reflection",
                    "datum": {"d": 4, "g": 0, "partitions": [[2, 2], [3, 1], [3, 1]]},
                    "method": "oracle",
                    "nu": -5,
                    "version": cli._cache_version(),
                },
                sort_keys=True,
            ).encode(),
            id="negative-nu",
        ),
        pytest.param(b"[" * 100_000, id="deeply-nested"),
        pytest.param(b"\xff\xfe", id="not-utf-8"),
    ],
)
def test_sweep_skips_cache_lines_that_are_not_entries(capsys, tmp_path, line):
    clean = tmp_path / "clean.jsonl"
    _, expected, _ = run(capsys, "sweep", "--max-d", "6", "--cache", str(clean))
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(line + b"\n" + clean.read_bytes())
    code, out, err = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    assert code == 0
    assert out == expected
    assert "skipped 1 unusable lines" in err
    assert "0 computed" in err


def test_interrupted_sweep_keeps_computed_entries(capsys, tmp_path, monkeypatch):
    clean = tmp_path / "clean.jsonl"
    _, expected, _ = run(capsys, "sweep", "--max-d", "6", "--cache", str(clean))
    weak_hurwitz = cli.O.weak_hurwitz
    calls = []

    def interrupted_after_three(*args, **kwargs):
        if len(calls) == 3:
            raise KeyboardInterrupt
        calls.append(args)
        return weak_hurwitz(*args, **kwargs)

    monkeypatch.setattr(cli.O, "weak_hurwitz", interrupted_after_three)
    cache = tmp_path / "cache.jsonl"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["sweep", "--max-d", "6", "--cache", str(cache)])
    lines = cache.read_text().splitlines()
    assert lines == clean.read_text().splitlines()[: len(lines)]
    assert len(lines) == 3

    monkeypatch.setattr(cli.O, "weak_hurwitz", weak_hurwitz)
    code, out, err = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    assert code == 0
    assert out == expected
    assert f"{len(lines)} cached" in err


def test_cache_cannot_mask_a_formula_change(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    assert run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))[0] == 0
    n = len(cache.read_text().splitlines())
    monkeypatch.setattr(
        cli.F,
        "nu_for_family",
        lambda g, h, k, pi: F.FormulaResult(nu=99, label="forced"),
    )
    code, out, err = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    assert code == 2
    assert out.count("DISCREPANT") == n
    # Every cached count disagrees with the formula, so each is recomputed
    # once, and the recomputed count still disagrees.
    assert f"({n} computed, 0 cached)" in err
    # The recomputed counts equal the cached ones, so no line is appended,
    # and a second run reports the same.
    assert len(cache.read_text().splitlines()) == n
    code2, out2, err2 = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    assert (code2, out2) == (code, out)
    assert f"({n} computed, 0 cached)" in err2
    assert len(cache.read_text().splitlines()) == n


def test_tampered_cache_count_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    _, expected, _ = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    lines = cache.read_text().splitlines()
    entry = json.loads(lines[0])
    entry["nu"] += 7
    cache.write_text("\n".join([json.dumps(entry, sort_keys=True), *lines[1:]]) + "\n")
    code, out, err = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    assert code == 0
    assert out == expected
    assert f"(1 computed, {len(lines) - 1} cached)" in err
    # The fresh count is appended, and the later line wins on the next load.
    assert cache.read_text().splitlines()[-1] == lines[0]
    code, out, err = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    assert (code, out) == (0, expected)
    assert f"(0 computed, {len(lines)} cached)" in err


def test_cache_written_by_other_code_is_recomputed(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    _, expected, _ = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    n = len(cache.read_text().splitlines())
    # As if oracle.py, perm.py or _purekernels.py had changed.
    monkeypatch.setattr(cli, "_cache_version", lambda: "other-code")
    code, out, err = run(capsys, "sweep", "--max-d", "6", "--cache", str(cache))
    assert code == 0
    assert out == expected
    assert f"skipped {n} unusable lines" in err
    assert f"({n} computed, 0 cached)" in err


def test_sweep_env_var_cache(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "env_cache.jsonl"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    code, _, _ = run(capsys, "sweep", "--max-d", "6")
    assert code == 0
    assert cache.exists()


@pytest.mark.parametrize("option", [(), ("--cache", "")], ids=["env", "env-and-flag"])
def test_sweep_empty_cache_env_var_means_no_cache(capsys, tmp_path, monkeypatch, option):
    # An empty HURWITZ_CACHE, like an empty --cache, runs without a cache.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.CACHE_ENV, "")
    code, out, err = run(capsys, "sweep", "--max-d", "4", *option)
    assert code == 0
    assert "total: 2 data, 0 discrepancies" in out
    assert err.startswith("elapsed: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_sweep_unwritable_cache_is_io_error(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "cache.jsonl"
    code, _, err = run(capsys, "sweep", "--max-d", "6", "--cache", str(target))
    assert code == 4
    assert "cache write failed" in err


def _child_env():
    """The environment for a child interpreter that imports ``src`` and no cache."""
    path_entries = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    env.pop(cli.CACHE_ENV, None)
    return env


def _one_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("path", ["/dev/full", "/dev/null", None], ids=["full", "null", "dir"])
def test_sweep_cache_that_is_not_a_regular_file_is_io_error(tmp_path, path):
    # /dev/full reads as one endless line of NUL bytes, so a sweep that
    # opened it would never end, and its pending line would grow without
    # bound.  The sweep runs in a child with a timeout and a 1 GiB
    # address-space limit, so that such a regression fails instead of
    # hanging or filling the host's memory.
    path = path or str(tmp_path)
    if not os.path.exists(path):
        pytest.skip(f"{path} does not exist on this platform")
    out = subprocess.run(
        [sys.executable, "-m", "hurwitznum", "sweep", "--max-d", "4", "--cache", path],
        capture_output=True, text=True, env=_child_env(), timeout=20,
        preexec_fn=_one_gib_address_space,
    )
    assert out.returncode == 4
    assert out.stdout == ""
    assert out.stderr == f"cache read failed: {path}: not a regular file\n"


def test_assertions_off_change_nothing():
    # python -O strips every assert, so no check on a caller's input may be one.
    def child(*args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=_child_env(),
            timeout=60, check=True,
        ).stdout

    sweep = ("-m", "hurwitznum", "sweep", "--max-d", "10")
    assert child("-O", *sweep) == child(*sweep)
    probe = (
        "from hurwitznum.witnesses import enumerate_witnesses\n"
        "try:\n    enumerate_witnesses(1, 2, 3, (5, 1))\n"
        "except ValueError:\n    print('refused')\n"
    )
    assert child("-O", "-c", probe) == "refused\n"


def test_cache_line_longer_than_the_limit_is_skipped_unheld(capsys, tmp_path):
    # A 32 MB line is read in pieces of at most CACHE_LINE_LIMIT bytes, never
    # whole, and the entries after it still load.
    clean = tmp_path / "clean.jsonl"
    run(capsys, "sweep", "--max-d", "6", "--cache", str(clean))
    version = cli._cache_version()
    expected, _ = cli._load_cache(str(clean), version)
    cache = tmp_path / "cache.jsonl"
    with open(cache, "wb") as fh:
        fh.write(b"x" * (32 << 20) + b"\n")
        fh.write(clean.read_bytes())
    tracemalloc.start()
    try:
        loaded, skipped = cli._load_cache(str(cache), version)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (loaded, skipped) == (expected, 1)
    assert peak < 1 << 20


def test_cache_line_limit_boundary(tmp_path):
    # The limit counts a line's bytes without its newline: one byte short of
    # it is an entry, at it the line is skipped, with or without a newline.
    # The longest entry at the oracle's cap is far below it.
    version = cli._cache_version()
    d = cli.O.HARD_DEGREE_CAP
    longest = {
        "datum": {"d": d, "g": 99, "partitions": [[1] * d] * 3},
        "nu": math.factorial(d) ** 2,
        "version": version,
    }
    assert 8 * len(json.dumps(longest, sort_keys=True)) < cli.CACHE_LINE_LIMIT
    entry = json.dumps(
        {"datum": {"d": 4, "g": 0, "partitions": [[2, 2], [3, 1], [3, 1]]}, "nu": 1,
         "version": version},
        sort_keys=True,
    ).encode()
    cache = tmp_path / "cache.jsonl"
    for size, newline, skipped in [
        (cli.CACHE_LINE_LIMIT - 1, b"\n", 0),
        (cli.CACHE_LINE_LIMIT - 1, b"", 0),
        (cli.CACHE_LINE_LIMIT, b"\n", 1),
        (cli.CACHE_LINE_LIMIT, b"", 1),
    ]:
        cache.write_bytes(entry.ljust(size) + newline)
        loaded, n = cli._load_cache(str(cache), version)
        assert (len(loaded), n) == (1 - skipped, skipped), (size, newline)


@pytest.mark.parametrize("pi", ["٦,1,1", "6,1,١", "６,1,1", "6,1^２"])
def test_partition_digits_are_ascii(capsys, pi):
    # With ASCII digits each of these is 6,1,1, a datum with one class.
    code, out, err = run(capsys, "count", "--genus", "0", "--h", "1", "--k", "4", "--pi", pi)
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed partition entry ")
    assert run(capsys, "count", "--genus", "0", "--h", "1", "--k", "4", "--pi", "6,1^2")[0] == 0


def test_sweep_over_bound_is_infeasible(capsys):
    code, _, err = run(capsys, "sweep", "--max-d", "26")
    assert code == 3
    assert "feasibility" in err


def test_sweep_reaches_past_the_default_max_d(capsys):
    # The 94 data at d = 18 are the oracle's first checks of the genus-0
    # and genus-1 closed forms at k = 9.
    code, out, _ = run(capsys, "sweep", "--max-d", "18")
    assert code == 0
    assert out.endswith("total: 320 data, 0 discrepancies\n")


def test_sweep_json_format(capsys, tmp_path):
    code, out, _ = run(capsys, "sweep", "--max-d", "6", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["discrepancies"] == 0
    assert blob["convention"] == "conjugation+swaps+reflection"
    assert all(rec["ok"] for rec in blob["data"])


def test_count_stdout_deterministic(capsys):
    args = ("count", "--genus", "2", "--h", "3", "--k", "5", "--method", "all")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_count_json_stdout_deterministic(capsys):
    # The elapsed time goes to stderr only.
    args = ("count", "--genus", "1", "--h", "2", "--k", "4", "--pi", "5,3",
            "--method", "all", "--format", "json")
    _, out1, err1 = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert "elapsed:" in err1 and "elapsed" not in out1


@pytest.mark.parametrize(
    "argv",
    [
        # oracle above --max-d, witnesses above MAX_GENUS2_K
        ("--genus", "2", "--h", "3", "--k", "1000"),
        # no witness families for h = 0, oracle above --max-d
        ("--genus", "0", "--h", "0", "--k", "9", "--pi", "10,8"),
    ],
    ids=["genus2-k1000", "genus0-h0"],
)
def test_count_all_with_one_route_names_it(capsys, argv):
    code, out, _ = run(capsys, "count", *argv, "--method", "all")
    assert code == 0
    assert "nu (formula):" in out
    assert "nu (witnesses)" not in out and "nu (oracle)" not in out
    assert out.endswith("agreement: n/a (formula only)\n")


@pytest.mark.parametrize(
    "argv, nu",
    [
        (("--genus", "2", "--h", "4", "--k", "6", "--pi", "7,5"), 12),
        (("--genus", "1", "--h", "3", "--k", "6", "--pi", "6,4,2"), 5),
        (("--genus", "3", "--h", "5", "--k", "8", "--pi", "16"), 1753),
    ],
    ids=["genus2-h4", "genus1-h3", "genus3-h5"],
)
def test_count_all_without_closed_form_runs_the_oracle(capsys, argv, nu):
    code, out, _ = run(capsys, "count", *argv, "--method", "all")
    assert code == 0
    assert "nu (formula)" not in out and "nu (witnesses)" not in out
    assert f"nu (oracle): {nu}  [strong " in out
    assert out.endswith(f"nu: {nu}\nagreement: n/a (oracle only)\n")


@pytest.mark.parametrize(
    "argv, nu",
    [
        (("--genus", "2", "--h", "3", "--k", "13", "--max-d", "26"), 1770),
        (("--genus", "0", "--h", "1", "--k", "13", "--pi", "24,1,1", "--max-d", "30"), 1),
    ],
    ids=["genus2-k13", "genus0-k13"],
)
def test_count_all_skips_the_oracle_above_its_cap(capsys, argv, nu):
    # --max-d above HARD_DEGREE_CAP: the formula and the witnesses still run.
    code, out, _ = run(capsys, "count", *argv, "--method", "all")
    assert code == 0
    assert f"nu (formula): {nu}  [case " in out
    assert f"nu (witnesses): {nu}  [" in out
    assert "nu (oracle)" not in out
    assert out.endswith(f"nu: {nu}\nagreement: yes\n")


def test_count_oracle_above_its_cap_is_infeasible(capsys):
    code, out, err = run(capsys, "count", "--genus", "2", "--h", "3", "--k", "13",
                         "--max-d", "26", "--method", "oracle")
    assert code == 3
    assert out == ""
    assert err.startswith("infeasible: ") and "HARD_DEGREE_CAP" in err


def test_count_all_with_no_route_is_infeasible(capsys):
    code, out, err = run(capsys, "count", "--genus", "3", "--h", "5", "--k", "9",
                         "--pi", "18", "--method", "all")
    assert code == 3
    assert out == ""
    assert err.startswith("infeasible: ") and "--max-d 16" in err


def test_convention_flag(capsys):
    code, out, _ = run(capsys, "count", "--genus", "1", "--h", "1", "--k", "6",
                       "--method", "oracle", "--convention", "conjugation")
    assert code == 0
    assert "nu: 4" in out
    code, out, _ = run(capsys, "count", "--genus", "1", "--h", "1", "--k", "6",
                       "--method", "oracle", "--convention", "full")
    assert code == 0
    assert "nu: 3" in out


def test_count_all_under_another_convention_runs_the_oracle_only(capsys):
    # The formula and the witnesses count full classes: 2 here, where
    # conjugation alone leaves 3, which is not a discrepancy.
    code, out, _ = run(capsys, "count", "--genus", "0", "--h", "2", "--k", "6",
                       "--pi", "5,4,2,1", "--convention", "conjugation")
    assert code == 0
    assert "nu (formula)" not in out and "nu (witnesses)" not in out
    assert "nu (oracle): 3" in out
    assert out.endswith("agreement: n/a (oracle only)\n")


@pytest.mark.parametrize("method", ["formula", "witnesses"])
def test_count_route_without_the_convention_exits_one(capsys, method):
    code, out, err = run(capsys, "count", "--genus", "0", "--h", "2", "--k", "6",
                         "--pi", "5,4,2,1", "--method", method, "--convention", "swaps")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: --method {method} ") and "conjugation+swaps" in err


def _readme_commands() -> list[list[str]]:
    """The ``hurwitz ...`` lines of README's "Command line" code block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("hurwitz ")
    ]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    commands = _readme_commands()
    assert len(commands) >= 4
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
