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


def _random_case(rng, d):
    """A random anchored-scan configuration of even degree d."""
    anchor_parts = tuple(rng.choice(B.partitions_of(d)))
    r = P.class_representative(anchor_parts)
    phi = P.inverse(r)
    target = tuple(rng.choice(B.partitions_of(d)))
    parent = [0] * d
    for cyc in P.cycles(r):
        for x in cyc:
            parent[x] = cyc[0]
    return phi, target, parent, len(P.cycles(r))


@needs_speed
@pytest.mark.parametrize("d", [4, 6, 8, 10])
def test_backends_agree_on_random_blocks(d):
    rng = random.Random(d * 1009)
    for trial in range(24):
        phi, target, parent, nroots = _random_case(rng, d)
        left = bool(rng.getrandbits(1))
        first = rng.randrange(1, d)
        got_fast = _speed.scan_involutions_block(
            d, first, phi, left, target, parent, nroots
        )
        got_pure = _purekernels.scan_involutions_block(
            d, first, phi, left, target, parent, nroots
        )
        assert sorted(got_fast) == sorted(got_pure), (d, trial)


@needs_speed
def test_backends_agree_on_family_blocks():
    # the exact configuration the oracle runs: anchor on the involution
    # class companions of a reference-table row
    datum = B.make_family_datum(0, 1, 6, (9, 2, 1))
    d = datum.degree
    r = P.class_representative(datum.partitions[1])
    phi = P.inverse(r)
    parent = [0] * d
    for cyc in P.cycles(r):
        for x in cyc:
            parent[x] = cyc[0]
    nroots = len(P.cycles(r))
    for left in (False, True):
        for first in range(1, d):
            fast = _speed.scan_involutions_block(
                d, first, phi, left, datum.partitions[2], parent, nroots
            )
            pure = _purekernels.scan_involutions_block(
                d, first, phi, left, datum.partitions[2], parent, nroots
            )
            assert sorted(fast) == sorted(pure)


@needs_speed
def test_survivors_are_valid_involutions():
    d = 8
    rng = random.Random(7)
    phi, target, parent, nroots = _random_case(rng, d)
    for first in range(1, d):
        for v in _speed.scan_involutions_block(
            d, first, phi, True, target, parent, nroots
        ):
            assert v[0] == first
            assert P.cycle_type(v) == (2,) * (d // 2)
            t = P.compose(v, phi)
            assert P.cycle_type(t) == target


def test_block_union_is_the_full_stream():
    d = 6
    datum = B.make_family_datum(0, 1, 3, (4, 1, 1))
    r = P.class_representative(datum.partitions[1])
    phi = P.inverse(r)
    parent = [0] * d
    for cyc in P.cycles(r):
        for x in cyc:
            parent[x] = cyc[0]
    nroots = len(P.cycles(r))
    blocks = [
        v
        for first in range(1, d)
        for v in _purekernels.scan_involutions_block(
            d, first, phi, True, datum.partitions[2], parent, nroots
        )
    ]
    assert len(set(blocks)) == len(blocks)
    brute = [
        v
        for v in P.involution_stream(d)
        if P.cycle_type(P.compose(v, phi)) == datum.partitions[2]
        and P.is_transitive([r, v], d)
    ]
    assert sorted(blocks) == sorted(brute)


def test_kernel_input_validation():
    for impl in (_purekernels, _speed):
        if impl is None:
            continue
        with pytest.raises(ValueError):
            impl.scan_involutions_block(5, 1, (0, 1, 2, 3, 4), True, (5,), [0] * 5, 1)
        with pytest.raises(ValueError):
            impl.scan_involutions_block(
                4, 0, (0, 1, 2, 3), True, (2, 2), [0, 0, 2, 2], 2
            )


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
    subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp_path / "lib"), "--build-temp", str(tmp_path / "tmp")],
        cwd=ROOT, capture_output=True, check=True,
    )
    (path,) = (tmp_path / "lib" / "hurwitznum").glob("_speed*")
    spec = importlib.util.spec_from_file_location("hurwitznum._speed", path)
    built = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(built)
    assert built.backend() == "compiled"
    for d in (4, 6, 8, 10):
        rng = random.Random(d * 7919)
        for trial in range(24):
            phi, target, parent, nroots = _random_case(rng, d)
            args = (d, rng.randrange(1, d), phi, bool(rng.getrandbits(1)), target, parent, nroots)
            assert built.scan_involutions_block(*args) == _purekernels.scan_involutions_block(
                *args
            ), (d, trial)
