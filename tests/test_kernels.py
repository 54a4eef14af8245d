"""Compiled scan kernel against its pure Python reference implementation."""

import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest

from hurwitznum import _purekernels, kernels
from hurwitznum import branchdata as B
from hurwitznum import oracle as O
from hurwitznum import perm as P

try:
    from hurwitznum import _speed
except ImportError:
    _speed = None

needs_speed = pytest.mark.skipif(_speed is None, reason="hurwitznum._speed is not built")
ROOT = Path(__file__).resolve().parent.parent


def _cases(d, rng):
    """Anchored-scan configurations (lens, target) of even degree d, with lens
    the anchor's cycle lengths: the d-cycle and (d - 1, 1), whose sets S hold
    only the powers of the rotation of cycle 0, against every target, then
    six random anchors and targets."""
    for lens in ((d,), (d - 1, 1)):
        for target in B.partitions_of(d):
            yield lens, tuple(target)
    for _ in range(6):
        yield tuple(rng.choice(B.partitions_of(d))), tuple(rng.choice(B.partitions_of(d)))


def _assert_agrees_with_pure(impl, cases):
    """impl returns the pure twin's survivors, in the same order, on every
    block of every case (lens, target)."""
    for lens, target in cases:
        d = sum(lens)
        for first in range(1, d):
            args = (d, first, lens, target)
            assert impl.scan_involutions_block(*args) == (
                _purekernels.scan_involutions_block(*args)
            ), args


def _cycles(lens):
    """The cycles of class_representative(lens), as point ranges."""
    starts = list(accumulate(lens, initial=0))
    return [range(starts[i], starts[i + 1]) for i in range(len(lens))]


def _rotation_powers(d, cycle):
    """Every power of the rotation of cycle, the identity included."""
    rho = P.from_cycles(d, [cycle])
    out, g = [], P.identity(d)
    for _ in cycle:
        out.append(g)
        g = P.compose(rho, g)
    return out


def _adjacent_swaps(lens):
    """The pointwise swaps of adjacent equal-length cycles."""
    d, cycles = sum(lens), _cycles(lens)
    return [
        P.from_cycles(d, list(zip(cycles[i - 1], cycles[i])))
        for i in range(1, len(lens))
        if lens[i - 1] == lens[i]
    ]


def _canonical(v, lens):
    """The kept involutions: no conjugate by a power of the rotation of any
    cycle, cycle 0 included, or by an adjacent equal-length swap, is
    lexicographically smaller than v."""
    d = len(v)
    group = _adjacent_swaps(lens)
    for cycle in _cycles(lens):
        group += _rotation_powers(d, cycle)
    return all(P.conjugate(v, g) >= v for g in group)


def _centralizer_orbit(v, lens):
    """The orbit of v under conjugation by the closure of the rotations of
    every cycle and the adjacent equal-length swaps."""
    d = len(v)
    gens = _adjacent_swaps(lens) + [
        P.from_cycles(d, [cycle]) for cycle in _cycles(lens) if len(cycle) > 1
    ]
    orbit, todo = {v}, [v]
    for w in todo:  # todo grows as the walk reaches new conjugates
        for g in gens:
            u = P.conjugate(w, g)
            if u not in orbit:
                orbit.add(u)
                todo.append(u)
    return orbit


def _brute_stream(lens):
    """Every involution v that makes a transitive pair with
    class_representative(lens), by the cycle type of v∘phi."""
    d = sum(lens)
    r = P.class_representative(lens)
    phi = P.inverse(r)
    by_type = {}
    for v in P.class_stream((2,) * (d // 2)):
        if P.is_transitive([r, v], d):
            by_type.setdefault(P.cycle_type(P.compose(v, phi)), []).append(v)
    return by_type


def _blocks(impl, lens, target):
    d = sum(lens)
    return [v for first in range(1, d) for v in impl.scan_involutions_block(d, first, lens, target)]


# Anchors with equal-length cycles and fixed points, which the symmetry
# test's swaps and rotations of the later cycles act on.
EQUAL_CYCLE_ANCHORS = [(2, 2, 2, 2), (3, 3, 2), (2, 2, 1, 1), (4, 4, 2), (2, 2, 2, 1, 1)]


@needs_speed
@pytest.mark.parametrize("d", [4, 6, 8, 10])
def test_backends_agree_on_random_blocks(d):
    _assert_agrees_with_pure(_speed, _cases(d, random.Random(d * 1009)))


@pytest.mark.parametrize("d", [4, 6, 8, 10])
def test_rotation_keeps_a_member_of_every_orbit(d):
    # Every survivor's orbit under the anchor's centralizer meets the kept
    # set, so no strong class is lost.
    rng = random.Random(d * 31)
    cases = list(_cases(d, rng)) + [
        (lens, tuple(target))
        for lens in EQUAL_CYCLE_ANCHORS
        if sum(lens) == d
        for target in B.partitions_of(d)
    ]
    streams = {}
    for trial, (lens, target) in enumerate(cases):
        if lens not in streams:
            streams[lens] = _brute_stream(lens)
        every = streams[lens].get(target, [])
        kept = set(_blocks(_purekernels, lens, target))
        assert kept <= set(every)
        for v in every:
            assert not kept.isdisjoint(_centralizer_orbit(v, lens)), (d, trial, lens, v)


def test_rotation_prunes_blocks_whose_rotation_conjugate_is_smaller():
    # With lens = (c,) and first < c, conjugating by the rotation that moves
    # first to 0 gives an involution that pairs 0 with c - first.  It is
    # smaller than v, which pairs 0 with first, when c - first < first, so
    # the root pair decides and the whole block goes.
    d = 8
    lens, target = (d,), (5, 2, 1)
    stream = _brute_stream(lens)[target]
    for impl in (_purekernels, _speed):
        if impl is None:
            continue
        for first in (5, 6, 7):
            assert any(v[0] == first for v in stream)
            assert impl.scan_involutions_block(d, first, lens, target) == []


@needs_speed
def test_backends_agree_on_family_blocks():
    # the exact configuration the oracle runs: anchor on the involution
    # class companions of a reference-table row
    datum = B.make_family_datum(0, 1, 6, (9, 2, 1))
    _assert_agrees_with_pure(_speed, [datum.partitions[1:]])


def test_survivors_are_valid_involutions():
    d = 8
    for impl in (_purekernels, _speed):
        if impl is None:
            continue
        for lens, target in _cases(d, random.Random(7)):
            r = P.class_representative(lens)
            for first in range(1, d):
                for v in impl.scan_involutions_block(d, first, lens, target):
                    assert v[0] == first
                    assert P.cycle_type(v) == (2,) * (d // 2)
                    assert P.cycle_type(P.compose(v, P.inverse(r))) == target
                    assert P.is_transitive([r, v], d)


@pytest.mark.parametrize(
    "anchor",
    [(3, 3), (2, 2, 2), (3, 2, 1), (4, 2, 2), (3, 3, 1, 1),
     (4,), (6,), (8,), (10,), (3, 1), (5, 1), (7, 1), (9, 1),
     (4, 4), (5, 3), (6, 2), (4, 3, 2, 1), (7, 2, 1), (7, 3), (7, 3, 2),
     *EQUAL_CYCLE_ANCHORS],
    ids=lambda parts: "-".join(map(str, parts)),
)
def test_block_union_is_the_full_stream(anchor):
    # Several anchor cycles: the kernel's point classes, derived from lens,
    # decide which survivors are transitive.  The blocks keep exactly the
    # members of the stream that pass the symmetry test, built here from
    # lens alone; a scan that prunes a kept survivor, or keeps another
    # involution, fails here.  (7, 3) and (7, 3, 2) are the anchors of the
    # genus-2 data at d = 10 and 12, the family of the `deep` benchmark.
    by_type = _brute_stream(anchor)
    for target in B.partitions_of(sum(anchor)):
        target = tuple(target)
        brute = sorted(v for v in by_type.get(target, []) if _canonical(v, anchor))
        for impl in (_purekernels, _speed):
            if impl is None:
                continue
            blocks = _blocks(impl, anchor, target)
            assert len(set(blocks)) == len(blocks)
            assert sorted(blocks) == brute, (impl.backend(), target)


def _assert_rejects_bad_input(impl):
    """impl raises ValueError on an odd degree, a first partner out of range,
    and lens or target that are not parts in 1..d summing to d."""
    with pytest.raises(ValueError):
        impl.scan_involutions_block(5, 1, (5,), (5,))
    with pytest.raises(ValueError):
        impl.scan_involutions_block(4, 0, (4,), (2, 2))
    # empty, a part outside 1..d, or not summing to d
    bad = ((), (5,), (0, 4), (4, 0), (3,), (2, 1), (2, 2, 1), (2, 2, 2), (1,) * 5)
    for parts in bad:
        with pytest.raises(ValueError):
            impl.scan_involutions_block(4, 1, parts, (2, 2))
        with pytest.raises(ValueError):
            impl.scan_involutions_block(4, 1, (4,), parts)


def test_kernel_input_validation():
    for impl in (_purekernels, _speed):
        if impl is not None:
            _assert_rejects_bad_input(impl)


def test_target_order_is_not_read():
    # The walk takes parts off the target as cycles close, so the target is
    # a multiset.
    d = 8
    for impl in (_purekernels, _speed):
        if impl is None:
            continue
        for lens, target in _cases(d, random.Random(11)):
            for first in range(1, d):
                assert impl.scan_involutions_block(d, first, lens, target[::-1]) == (
                    impl.scan_involutions_block(d, first, lens, target)
                ), (impl.backend(), lens, target, first)


def test_backend_names():
    assert _purekernels.backend() == "pure"
    assert kernels.backend() in ("pure", "compiled")
    if _speed is not None:
        assert _speed.backend() == "compiled"


def test_scan_starts_no_thread(monkeypatch):
    # A stand-in for a live compiled twin that delegates to the pure one: the
    # scan runs its blocks inline on every backend, whatever ``threads`` says.
    import threading

    datum = B.make_family_datum(2, 3, 6, (12,))
    monkeypatch.setattr(O, "_REPS_CACHE", {})
    inline = (O.strong_hurwitz(datum), O.weak_hurwitz(datum, O.FULL_MOVES))

    def no_thread(self):
        raise AssertionError("the scan started a thread")

    monkeypatch.setattr(O, "_REPS_CACHE", {})
    monkeypatch.setattr(kernels, "_impl", SimpleNamespace(backend=lambda: "compiled"))
    monkeypatch.setattr(kernels, "scan_involutions_block", _purekernels.scan_involutions_block)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert O.strong_hurwitz(datum, threads=8) == inline[0] > 0
    assert O.weak_hurwitz(datum, O.FULL_MOVES, threads=8) == inline[1]


def test_importing_the_package_loads_only_what_start_up_needs():
    # Every command pays for these imports before it counts anything; none
    # of these modules is needed until a csv table or a cache file is asked
    # for, or at all.  -S keeps site hooks, which may preload some of them,
    # out of the child.
    unwanted = (
        "concurrent.futures", "dataclasses", "inspect", "fractions", "decimal",
        "csv", "pathlib", "hashlib",
    )
    code = (
        f"import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import hurwitznum, hurwitznum.cli, hurwitznum.formulas, hurwitznum.witnesses\n"
        "import hurwitznum.kernels\n"
        f"print(sorted(m for m in {unwanted!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_pure_env_forces_fallback():
    env = dict(os.environ, HURWITZNUM_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "from hurwitznum import kernels; print(kernels.backend())"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "pure"


_STUB_SPEED = """
import sys, types, warnings
stub = types.ModuleType("hurwitznum._speed")
stub.backend = lambda: "compiled"
stub.scan_involutions_block = None
if {api!r} is not None:
    stub.API = {api!r}
sys.modules["hurwitznum._speed"] = stub
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from hurwitznum import kernels
print(kernels.backend())
for w in caught:
    print(w.message)
"""


@pytest.mark.parametrize("api", [None, *range(1, _purekernels.API + 1)])
def test_stale_compiled_kernel_falls_back_to_pure(api):
    # A build from an older _speed.c (no API, or another one) must not be
    # called with arguments it does not take; a current one is used.
    env = {k: v for k, v in os.environ.items() if k != "HURWITZNUM_PURE"}
    out = subprocess.run(
        [sys.executable, "-c", _STUB_SPEED.format(api=api)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    lines = out.stdout.splitlines()
    if api == _purekernels.API:
        assert lines == ["compiled"]
    else:
        assert lines[0] == "pure"
        assert len(lines) == 2
        assert "python3 setup.py build_ext --inplace" in lines[1]


@needs_speed
def test_compiled_is_default_when_present():
    env = {k: v for k, v in os.environ.items() if k != "HURWITZNUM_PURE"}
    out = subprocess.run(
        [sys.executable, "-c", "from hurwitznum import kernels; print(kernels.backend())"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "compiled"


def test_extension_builds_and_matches_pure(tmp_path):
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler found")
    # The extension is optional, so a failed compile still exits 0; a
    # warning under -Wall fails the compile and leaves no module.
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp_path / "lib"), "--build-temp", str(tmp_path / "tmp")],
        cwd=ROOT, capture_output=True, text=True, check=True,
        env=dict(os.environ, CFLAGS="-Wall -Werror"),
    )
    built_files = list((tmp_path / "lib" / "hurwitznum").glob("_speed*"))
    assert len(built_files) == 1, build.stdout + build.stderr
    (path,) = built_files
    spec = importlib.util.spec_from_file_location("hurwitznum._speed", path)
    built = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(built)
    assert built.backend() == "compiled"
    assert built.API == _purekernels.API
    _assert_rejects_bad_input(built)
    for d in (4, 6, 8, 10):
        _assert_agrees_with_pure(built, _cases(d, random.Random(d * 7919)))
    # On a clean checkout: the configuration of the `deep` benchmark,
    # make_family_datum(2, 3, 7, (14,)), then every configuration the
    # oracle scans on the family data of `hurwitz sweep --max-d 12`, and
    # the (11, 1) anchor, whose S holds only the rotations of cycle 0,
    # against every target of degree 12.
    configs = []
    for datum in [B.make_family_datum(2, 3, 7, (14,))] + [
        datum for _, datum in B.family_data(12)
    ]:
        anchor, stream, forced = O._choose_slots(datum)
        assert datum.partitions[stream] == (2,) * (datum.degree // 2)
        configs.append((datum.partitions[anchor], datum.partitions[forced]))
    assert configs[0] == ((7, 3, 2, 2), (14,))
    assert len(configs) == 1 + 98
    configs += [((11, 1), tuple(target)) for target in B.partitions_of(12)]
    _assert_agrees_with_pure(built, configs)
