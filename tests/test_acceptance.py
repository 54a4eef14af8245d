"""Acceptance gate: one timed pass/fail line per criterion.

Each criterion exercises an end-to-end guarantee of the package: the
reference table reproduces byte for byte, the three computation paths
agree wherever they overlap, the candidate arbitration is decided by the
brute-force oracle, and the oracle agrees with a fully exhaustive
enumeration on every small datum.
"""

import time
from itertools import combinations_with_replacement, permutations
from pathlib import Path

from hurwitznum import branchdata as B
from hurwitznum import cli
from hurwitznum import formulas as F
from hurwitznum import oracle as O
from hurwitznum import witnesses as W

GOLDEN = Path(__file__).parent / "data"


def _verdict(capfd, number, desc, elapsed, budget, ok):
    status = "PASS" if (ok and elapsed <= budget) else "FAIL"
    with capfd.disabled():
        print(
            f"[criterion {number:02d}] {desc}: {status} "
            f"({elapsed:.2f}s, budget {budget:.0f}s)",
            flush=True,
        )
    assert ok, f"criterion {number} assertions failed"
    assert elapsed <= budget, (
        f"criterion {number} exceeded budget: {elapsed:.2f}s > {budget}s"
    )


def test_criterion_01_reference_table_byte_match(capfd):
    started = time.perf_counter()
    ok = (
        cli.render_table("text") == (GOLDEN / "table_k8.txt").read_text()
        and cli.render_table("csv") == (GOLDEN / "table_k8.csv").read_text()
    )
    _verdict(
        capfd, 1, "reference table golden-file byte match",
        time.perf_counter() - started, 1.0, ok,
    )


def test_criterion_02_oracle_matches_genus0_formulas(capfd):
    started = time.perf_counter()
    ok = True
    for h in (0, 1, 2):
        for k in range(h + 2, 7):
            for pi in B.partitions_of(2 * k, h + 2):
                datum = B.make_family_datum(0, h, k, pi)
                got = O.weak_hurwitz(datum, O.FULL_MOVES, threads=4)
                want = F.nu_genus0(h, k, pi).nu
                ok = ok and got == want
                assert got == want, (h, k, pi, got, want)
    _verdict(
        capfd, 2, "oracle equals genus-0 formulas for all data to degree 12",
        time.perf_counter() - started, 60.0, ok,
    )


def test_criterion_03_candidate_arbitration(capfd):
    started = time.perf_counter()
    oracle_values = {
        k: O.weak_hurwitz(B.make_family_datum(1, 1, k, (2 * k,)), O.FULL_MOVES)
        for k in (3, 4, 5)
    }
    # both published closed forms are refuted by the enumeration;
    # the verbal description (partitions into three parts) fits
    refuted = {
        name: any(
            F.genus1_h1_candidate(name, k) != v for k, v in oracle_values.items()
        )
        for name in ("half-k-km1", "choose-km1-2")
    }
    verdict = F.arbitrate_genus1_h1(oracle_values)
    formula_matches = all(
        F.nu_genus1(1, k, (2 * k,)).nu == v for k, v in oracle_values.items()
    )
    ok = (
        all(refuted.values())
        and verdict == F.GENUS1_H1_VERDICT == "unordered-triples"
        and formula_matches
    )
    _verdict(
        capfd, 3, "torus count arbitration decided by the oracle",
        time.perf_counter() - started, 60.0, ok,
    )


def test_criterion_04_torus_two_slot_formula(capfd):
    started = time.perf_counter()
    ok = True
    for k in (4, 5):
        for p in range(1, k + 1):
            pi = tuple(sorted((2 * k - p, p), reverse=True))
            datum = B.make_family_datum(1, 2, k, pi)
            got = O.weak_hurwitz(datum, O.FULL_MOVES, threads=4)
            want = F.nu_genus1(2, k, pi).nu
            ok = ok and got == want
            assert got == want, (k, p, got, want)
    _verdict(
        capfd, 4, "oracle equals floor-bracket formula for two-slot torus data",
        time.perf_counter() - started, 120.0, ok,
    )


def test_criterion_05_genus2_value_and_identities(capfd):
    started = time.perf_counter()
    datum = B.make_family_datum(2, 3, 5, (10,))
    got = O.weak_hurwitz(datum, O.FULL_MOVES, threads=4)
    ok = got == 6 == F.nu_genus2(5).nu
    oracle_elapsed = time.perf_counter() - started

    identity_started = time.perf_counter()
    for k in range(5, 201):
        res = F.nu_genus2(k)
        x, y = res.intermediates["x"], res.intermediates["y"]
        parity = (
            res.intermediates["nu_odd"] if k % 2 else res.intermediates["nu_even"]
        )
        ok = ok and res.nu == 5 * x + y == parity
    identity_elapsed = time.perf_counter() - identity_started

    _verdict(
        capfd, 5, "genus-2 desk-scale value and closed-form identities",
        oracle_elapsed + identity_elapsed, 60.0,
        ok and oracle_elapsed <= 60.0 and identity_elapsed <= 1.0,
    )


def test_criterion_06_coincident_partition_data(capfd):
    started = time.perf_counter()
    ok = len(W.COINCIDENT_RESOLUTIONS) == 7
    zeros = []
    for datum, want in W.COINCIDENT_RESOLUTIONS.items():
        got = O.weak_hurwitz(datum, O.FULL_MOVES, threads=4)
        ok = ok and got == want
        assert got == want, (datum, got, want)
        if want == 0:
            zeros.append(datum.degree)
    # the two excluded-by-parity data sit at degrees 4 and 8
    ok = ok and sorted(zeros) == [4, 8]
    _verdict(
        capfd, 6, "all seven coincident-partition data resolved by the oracle",
        time.perf_counter() - started, 60.0, ok,
    )


def test_criterion_07_orbit_count_closed_forms(capfd):
    started = time.perf_counter()
    ok = all(F.z_count(h) == F.z_brute(h) for h in range(4, 41))
    _verdict(
        capfd, 7, "region-pair orbit closed forms equal brute-force counts",
        time.perf_counter() - started, 1.0, ok,
    )


def test_criterion_08_witness_completeness(capfd):
    started = time.perf_counter()
    ok = True
    for (g, h) in sorted(W.FAMILIES):
        for k in range(h + 2, 31):
            for pi in B.partitions_of(2 * k, h - 2 * g + 2):
                ws = W.enumerate_witnesses(g, h, k, pi)
                if g == 0:
                    want = F.nu_genus0(h, k, pi).nu
                elif g == 1:
                    want = F.nu_genus1(h, k, pi).nu
                else:
                    want = F.nu_genus2(k).nu
                ok = ok and len(ws) == want and len(set(ws)) == len(ws)
                assert len(ws) == want, (g, h, k, pi)
                for w in ws:
                    ok = ok and W.realized_partition(w, k) == pi
    _verdict(
        capfd, 8, "witness enumerations complete and faithful to k = 30",
        time.perf_counter() - started, 10.0, ok,
    )


def _admissible_data(d):
    """Branch data on three partitions of d with a consistent source genus."""
    out = []
    for combo in combinations_with_replacement(B.partitions_of(d), 3):
        chi = sum(len(p) for p in combo) - d
        if chi % 2 or chi > 2:
            continue
        out.append(((2 - chi) // 2, combo))
    return out


def test_criterion_09_oracle_self_consistency(capfd):
    started = time.perf_counter()
    ok = True

    # exhaustive enumeration against the anchored algorithm; all slot
    # orders to degree 6, one order per multiset at degree 7
    for d in range(2, 8):
        for g, combo in _admissible_data(d):
            orders = (
                sorted(set(permutations(combo))) if d <= 6 else [combo]
            )
            for pis in orders:
                datum = B.BranchDatum(g, d, pis)
                strong, weak = O.unanchored_profile(datum)
                ok = ok and strong == O.strong_hurwitz(datum)
                assert strong == O.strong_hurwitz(datum), datum
                for conv in O.ALL_CONVENTIONS:
                    got = O.weak_hurwitz(datum, conv)
                    ok = ok and weak[conv.label()] == got
                    assert weak[conv.label()] == got, (datum, conv.label())

    # thread count must not affect results
    for datum in (
        B.make_family_datum(0, 1, 6, (10, 1, 1)),
        B.make_family_datum(2, 3, 6, (12,)),
    ):
        O._REPS_CACHE.clear()
        serial = (O.strong_hurwitz(datum, threads=1),
                  O.weak_hurwitz(datum, O.FULL_MOVES, threads=1))
        for threads in (2, 8):
            O._REPS_CACHE.clear()
            parallel = (O.strong_hurwitz(datum, threads=threads),
                        O.weak_hurwitz(datum, O.FULL_MOVES, threads=threads))
            ok = ok and parallel == serial
            assert parallel == serial, (datum, threads)

    _verdict(
        capfd, 9, "anchored oracle equals exhaustive enumeration; thread-stable",
        time.perf_counter() - started, 120.0, ok,
    )


def test_criterion_10_stretch_full_degree16_table(capfd):
    started = time.perf_counter()
    ok = True
    for pi in B.partitions_of(16, 3):
        datum = B.make_family_datum(0, 1, 8, pi)
        got = O.weak_hurwitz(datum, O.FULL_MOVES, threads=4)
        want = F.nu_genus0(1, 8, pi).nu
        ok = ok and got == want
        assert got == want, (pi, got, want)
    _verdict(
        capfd, 10, "oracle reproduces the full reference table at degree 16",
        time.perf_counter() - started, 600.0, ok,
    )
