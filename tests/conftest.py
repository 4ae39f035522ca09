import contextlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from anosovcheck.chamber import FaceType
from anosovcheck.cli import CHECKER_ORDER, bundled_config_path, run_config
from anosovcheck.subgroup import FreeGroupPresentation, symmetric_square


SL2_G = np.array([[4.0, 0.0], [0.0, 0.25]])
_R = np.array([[np.cos(np.pi / 4), -np.sin(np.pi / 4)],
               [np.sin(np.pi / 4), np.cos(np.pi / 4)]])
SL2_H = _R @ SL2_G @ _R.T


def sl4_pair(planes):
    """diag(e^2.2, e^1.1, e^-1.1, e^-2.2) and its conjugate by plane rotations."""
    a = np.diag(np.exp([2.2, 1.1, -1.1, -2.2]))
    q = np.eye(4)
    for (i, j, th) in planes:
        r = np.eye(4)
        r[i, i] = r[j, j] = np.cos(th)
        r[i, j], r[j, i] = -np.sin(th), np.sin(th)
        q = q @ r
    return a, q @ a @ np.linalg.inv(q)


def same_group(gens):
    """(move, generators) pairs generating a conjugate of the group of the pair ``gens``.

    Conjugation by the rotation k of 0.5 rad in the plane of the first two
    axes, the swap (b, a) and the inversion (a^-1, b): moves that keep every
    verdict of an Anosov subgroup, being properties of the subgroup up to
    conjugacy in SL(n, R).
    """
    a, b = (np.asarray(g, dtype=float) for g in gens)
    k = np.eye(a.shape[0])
    k[:2, :2] = [[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]]
    return [("rotation", (k @ a @ k.T, k @ b @ k.T)), ("swap", (b, a)),
            ("inversion", (np.linalg.inv(a), b))]


def torus_pres(x):
    """A one-holed torus pair in SL(2, R) with tr a = tr b = tr ab = x.

    a = diag(l, x - l) with l + 1/l = x, and b symmetric with b11 = x / (l + 1),
    b22 = x - b11 and b12 = sqrt(b11 b22 - 1).  By Fricke's identity
    tr[a, b] = 3x^2 - x^3 - 2: at x = 3 the commutator is parabolic (the
    modular torus, with a cusp), and for x > 3 the group is Schottky.
    """
    lam = (x + np.sqrt(x * x - 4.0)) / 2.0
    b11 = x / (lam + 1.0)
    b22 = x - b11
    b12 = np.sqrt(b11 * b22 - 1.0)
    return FreeGroupPresentation((np.diag([lam, x - lam]), np.array([[b11, b12], [b12, b22]])))


@pytest.fixture()
def rng(request):
    # stable per-test stream, independent of execution order
    import zlib

    seed = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng(seed)


@pytest.fixture(scope="session")
def sl2_pres():
    return FreeGroupPresentation((SL2_G, SL2_H))


@pytest.fixture(scope="session")
def sl3_pres():
    return FreeGroupPresentation((symmetric_square(SL2_G), symmetric_square(SL2_H)))


@pytest.fixture(scope="session")
def sanov_pres():
    return FreeGroupPresentation((np.array([[1.0, 2.0], [0.0, 1.0]]),
                                  np.array([[1.0, 0.0], [2.0, 1.0]])))


@pytest.fixture(scope="session")
def face2():
    return FaceType.make(2, [1])


@pytest.fixture(scope="session")
def face3():
    return FaceType.full(3)


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """One CLI run per bundled config, shared by all downstream tests."""
    out = {}
    for name in ("sl2-schottky", "sl3-symsq-schottky", "sanov-unipotent"):
        tmp = tmp_path_factory.mktemp(name)
        t0 = time.perf_counter()
        code = run_config(bundled_config_path(name), out_dir=str(tmp))
        elapsed = time.perf_counter() - t0
        reports = {}
        for rp in tmp.glob("*.json"):
            reports[rp.stem] = json.loads(rp.read_text())
        out[name] = {"exit": code, "reports": reports, "elapsed": elapsed,
                     "dir": tmp}
    return out


@pytest.fixture(scope="session")
def atlas_reports(tmp_path_factory):
    """Each atlas row's four reports, from one CLI run of the row, made when a test first asks.

    The rows are ``test_atlas.ATLAS``'s; the atlas and rules tests share the runs.
    """
    from test_atlas import ATLAS  # imported here: test_atlas itself imports this module

    runs = {}

    def reports(row):
        if row not in runs:
            gens, options, _, _, _ = ATLAS[row]
            raw = json.loads(bundled_config_path(options).read_text())
            raw.update(name=row, generators=[g.tolist() for g in gens()])
            tmp = tmp_path_factory.mktemp(row)
            (tmp / "cfg.json").write_text(json.dumps(raw))
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_config(tmp / "cfg.json", out_dir=str(tmp / "out")) == 0
            runs[row] = {c: json.loads((tmp / "out" / f"{c}.json").read_text())
                         for c in CHECKER_ORDER}
        return runs[row]

    return reports
