"""Same group, same verdict: the bundled configs under moves that keep the subgroup.

Being Anosov is a property of a subgroup up to conjugacy, so every checker's
verdict must survive a change of generating set or a conjugation; only the
constants may move.  ``same_group`` yields the moves that hold today:
conjugation by a rotation, the swap (b, a) and the inversion (a^-1, b).
limit's and anosov's flags are read at a fixed pad of letters, so their
constants drift under these moves; the tests print that drift and bound
nothing of it.  The fixture ``torus_pres`` of the one-holed torus family is
checked here too.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from anosovcheck.cli import bundled_config_path, run_config
from anosovcheck.subgroup import TIE_RTOL, FreeGroupPresentation
from conftest import same_group, torus_pres

NAMES = ["sl2-schottky", "sl3-symsq-schottky", "sanov-unipotent"]


def moved_reports(name, move, tmp_path):
    """Reports of a bundled config whose generators are taken through ``move``."""
    raw = json.loads(bundled_config_path(name).read_text())
    gens = dict(same_group(raw["generators"]))[move]
    raw["generators"] = [g.tolist() for g in gens]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_config(p, out_dir=str(tmp_path / "out")) == 0
    return {c: json.loads((tmp_path / "out" / f"{c}.json").read_text()) for c in raw["checkers"]}


def leaves(x, path=""):
    """(path, value) of every scalar of a report, lists and objects walked through."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from leaves(v, f"{path}.{k}")
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, x


def float_drift(a, b):
    """Largest relative difference among the floats of two reports of the same shape, and its path."""
    a, b = dict(leaves(a)), dict(leaves(b))
    assert a.keys() == b.keys()
    return max(((abs(a[k] - b[k]) / max(abs(a[k]), abs(b[k])), k) for k in a
                if isinstance(a[k], float) and a[k] != b[k]), default=(0.0, None))


def assert_close(a, b, rtol):
    """Equal reports, but for floats within rtol relative."""
    a, b = dict(leaves(a)), dict(leaves(b))
    assert a.keys() == b.keys()
    for k in a:
        if isinstance(a[k], float) and isinstance(b[k], float):
            assert abs(a[k] - b[k]) <= rtol * max(abs(a[k]), abs(b[k])), k
        else:
            assert a[k] == b[k], k


@pytest.mark.parametrize("move", ["rotation", "swap", "inversion"])
@pytest.mark.parametrize("name", NAMES)
def test_moves_keep_every_verdict(pipeline_runs, name, move, tmp_path):
    given = pipeline_runs[name]["reports"]
    moved = moved_reports(name, move, tmp_path)
    assert {c: moved[c]["verdict"] for c in moved} == {c: given[c]["verdict"] for c in moved}
    # limit's and anosov's drift, bounded only once their flags are resolved
    for checker in ("limit", "anosov"):
        drift, path = float_drift(given[checker]["constants"], moved[checker]["constants"])
        print(f"{name} {move}: {checker} constants drift {drift:.2g} at {path}")


@pytest.mark.parametrize("checker, name", [
    *(("uru", name) for name in NAMES),
    ("morse", "sl2-schottky"),
    ("morse", "sanov-unipotent"),
    pytest.param("morse", "sl3-symsq-schottky", marks=pytest.mark.xfail(
        strict=True, reason="n = 3 deficits move by up to 7.1e-12 relative under the rotation")),
])
def test_rotation_keeps_uru_and_morse(pipeline_runs, checker, name, tmp_path):
    # an orthogonal conjugation keeps every singular value: every published
    # float of uru and morse, witnesses included, within 1e-12 relative
    given = pipeline_runs[name]["reports"][checker]
    moved = moved_reports(name, "rotation", tmp_path)[checker]
    assert_close({**moved, "config": None}, {**given, "config": None}, 1e-12)


@pytest.mark.parametrize("name", ["sl2-schottky", "sanov-unipotent"])
def test_swap_keeps_uru_and_morse(pipeline_runs, name, tmp_path):
    # the words of each length are the same products under a swap of the letters,
    # bit for bit: morse's per-length worst deficits stay bit-identical; a witness,
    # the first word depth first among its ties, may move to another word within
    # TIE_RTOL, and the probe reads the generators in the other order
    given, moved = pipeline_runs[name]["reports"], moved_reports(name, "swap", tmp_path)
    assert moved["morse"]["constants"] == given["morse"]["constants"]
    assert moved["morse"]["witnesses"]["worst_deficit"] == pytest.approx(
        given["morse"]["witnesses"]["worst_deficit"], rel=TIE_RTOL)
    assert_close(moved["uru"]["constants"], given["uru"]["constants"], TIE_RTOL)
    probe = [sorted([3 - i, k, d, r] for i, k, d, r in rep["uru"]["details"]["probe_points"])
             for rep in (moved, given)]
    assert_close(*probe, TIE_RTOL)


@pytest.mark.parametrize("x", [3.0, 3.1, 4.0, 6.0])
def test_torus_pres(x):
    pres = torus_pres(x)
    a, b = pres.generators
    assert isinstance(pres, FreeGroupPresentation)
    for m in (a, b):
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-14)
    for m in (a, b, a @ b):
        assert np.trace(m) == pytest.approx(x, rel=1e-15)
    # SL(2) inverses are adjugates, exact in floats
    adj = [np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) for m in (a, b)]
    trace = np.trace(a @ b @ adj[0] @ adj[1])
    assert trace == pytest.approx(3 * x * x - x ** 3 - 2, rel=1e-14)  # Fricke's identity
    if x == 3.0:  # the modular torus: a parabolic commutator, to the last bit
        assert trace == -2.0
