"""Compiled scan kernel against its pure Python reference implementation."""

import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from hurwitznum import _purekernels, kernels
from hurwitznum import branchdata as B
from hurwitznum import perm as P

try:
    from hurwitznum import _speed
except ImportError:
    _speed = None

needs_speed = pytest.mark.skipif(_speed is None, reason="hurwitznum._speed is not built")
ROOT = Path(__file__).resolve().parent.parent


def _cases(d, rng):
    """Anchored-scan configurations (phi, target, c) of even degree d, with c
    the length of the anchor's cycle through 0: the d-cycle, which the oracle
    prunes most, against every target, then six random anchors and targets."""
    phi = P.inverse(P.class_representative((d,)))
    for target in B.partitions_of(d):
        yield phi, tuple(target), d
    for _ in range(6):
        parts = tuple(rng.choice(B.partitions_of(d)))
        target = tuple(rng.choice(B.partitions_of(d)))
        yield P.inverse(P.class_representative(parts)), target, parts[0]


def _assert_agrees_with_pure(impl, d, rng):
    """impl returns the pure twin's survivors, in the same order, on every
    block of every case, with rot = 1 and rot = c."""
    for phi, target, c in _cases(d, rng):
        for first in range(1, d):
            for rot in (1, c):
                args = (d, first, phi, target, rot)
                assert impl.scan_involutions_block(*args) == (
                    _purekernels.scan_involutions_block(*args)
                ), args


def _rotations(v, c):
    """The conjugates of v by the powers of the rotation (0 1 ... c-1)."""
    rho = P.class_representative((c,) + (1,) * (len(v) - c))
    out, g = [], P.identity(len(v))
    for _ in range(c):
        out.append(P.conjugate(v, g))
        g = P.compose(rho, g)
    return out


@needs_speed
@pytest.mark.parametrize("d", [4, 6, 8, 10])
def test_backends_agree_on_random_blocks(d):
    _assert_agrees_with_pure(_speed, d, random.Random(d * 1009))


@pytest.mark.parametrize("d", [4, 6, 8, 10])
def test_rotation_keeps_a_member_of_every_orbit(d):
    rng = random.Random(d * 31)
    for trial, (phi, target, c) in enumerate(_cases(d, rng)):
        def scan(rot):
            return {
                v
                for first in range(1, d)
                for v in _purekernels.scan_involutions_block(d, first, phi, target, rot)
            }

        every, kept = scan(1), scan(c)
        assert kept <= every
        for v in every:
            assert not kept.isdisjoint(_rotations(v, c)), (d, trial, v)


def test_rotation_prunes_blocks_whose_partner_label_is_smaller():
    # With rot = c and first < c, point first gets label c - first, below
    # label(0) = first when c - first < first, so the whole block goes.
    d = 8
    r = P.class_representative((d,))
    args = (P.inverse(r), (5, 2, 1))
    for impl in (_purekernels, _speed):
        if impl is None:
            continue
        for first in (5, 6, 7):
            assert impl.scan_involutions_block(d, first, *args, 1)
            assert impl.scan_involutions_block(d, first, *args, d) == []


@needs_speed
def test_backends_agree_on_family_blocks():
    # the exact configuration the oracle runs: anchor on the involution
    # class companions of a reference-table row
    datum = B.make_family_datum(0, 1, 6, (9, 2, 1))
    d = datum.degree
    phi = P.inverse(P.class_representative(datum.partitions[1]))
    for first in range(1, d):
        for rot in (1, datum.partitions[1][0]):
            args = (d, first, phi, datum.partitions[2], rot)
            assert _speed.scan_involutions_block(*args) == (
                _purekernels.scan_involutions_block(*args)
            )


def test_survivors_are_valid_involutions():
    d = 8
    for impl in (_purekernels, _speed):
        if impl is None:
            continue
        for phi, target, c in _cases(d, random.Random(7)):
            r = P.inverse(phi)
            for first in range(1, d):
                for v in impl.scan_involutions_block(d, first, phi, target, c):
                    assert v[0] == first
                    assert P.cycle_type(v) == (2,) * (d // 2)
                    assert P.cycle_type(P.compose(v, phi)) == target
                    assert P.is_transitive([r, v], d)


def _rotation_canonical(v, c):
    """The rotation-label rule of the kernel, for the cycle 0..c-1."""
    def label(x):
        return (v[x] - x) % c if v[x] < c else c + v[x]

    return all(label(0) <= label(x) for x in range(c))


@pytest.mark.parametrize(
    "anchor",
    [(3, 3), (2, 2, 2), (3, 2, 1), (4, 2, 2), (3, 3, 1, 1),
     (4,), (6,), (8,), (10,), (4, 4), (5, 3), (6, 2), (4, 3, 2, 1), (7, 2, 1)],
    ids=lambda parts: "-".join(map(str, parts)),
)
def test_block_union_is_the_full_stream(anchor):
    # Several anchor cycles: the kernel's point classes, derived from phi,
    # decide which survivors are transitive.  With rot = c the blocks keep
    # exactly the rotation-canonical members of the stream; a scan that
    # prunes a survivor, or keeps a non-survivor, fails here.
    d = sum(anchor)
    c = anchor[0]
    r = P.class_representative(anchor)
    phi = P.inverse(r)
    by_type = {}
    for v in P.class_stream((2,) * (d // 2)):
        if P.is_transitive([r, v], d):
            by_type.setdefault(P.cycle_type(P.compose(v, phi)), []).append(v)
    for target in B.partitions_of(d):
        for rot in (1, c):
            brute = sorted(v for v in by_type.get(target, []) if _rotation_canonical(v, rot))
            for impl in (_purekernels, _speed):
                if impl is None:
                    continue
                blocks = [
                    v
                    for first in range(1, d)
                    for v in impl.scan_involutions_block(d, first, phi, target, rot)
                ]
                assert len(set(blocks)) == len(blocks)
                assert sorted(blocks) == brute, (impl.backend(), target, rot)


def test_kernel_input_validation():
    for impl in (_purekernels, _speed):
        if impl is None:
            continue
        with pytest.raises(ValueError):
            impl.scan_involutions_block(5, 1, (0, 1, 2, 3, 4), (5,), 1)
        with pytest.raises(ValueError):
            impl.scan_involutions_block(4, 0, (0, 1, 2, 3), (2, 2), 1)
        for rot in (0, 5):
            with pytest.raises(ValueError):
                impl.scan_involutions_block(4, 1, (0, 1, 2, 3), (2, 2), rot)
        for target in ((5,), (0, 4), (1,) * 5):
            with pytest.raises(ValueError):
                impl.scan_involutions_block(4, 1, (0, 1, 2, 3), target, 1)
        for phi in ((0, 1, 2, 2), (1, 2, 3, 4), (0, 1, 2)):
            with pytest.raises(ValueError):
                impl.scan_involutions_block(4, 1, phi, (2, 2), 1)


def test_backend_names():
    assert _purekernels.backend() == "pure"
    assert kernels.backend() in ("pure", "compiled")
    if _speed is not None:
        assert _speed.backend() == "compiled"


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
    for d in (4, 6, 8, 10):
        _assert_agrees_with_pure(built, d, random.Random(d * 7919))
