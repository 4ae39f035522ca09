"""The labelled atlas: all four checkers on groups whose label theory gives.

Each row is a free group in SL(2, R) or SL(3, R), labelled Anosov (A) or
not.  Its verdicts are held here as measured; a cell whose verdict differs
from the row's label is wrong, and is a strict xfail.  A wrong cell that
turns right then fails, until its mark goes, and so does a right cell that
turns wrong.  The rows:

- the three bundled configs;
- sl2-schottky and sanov-unipotent conjugated by D = diag(2, 1/2), and
  each after the Nielsen move (a, ab): the same groups, so the same labels;
- the one-holed torus ``torus_pres(x)``: Schottky for x > 3, with a cusp at
  x = 3 (Goldman, Geom. Topol. 2003);
- the modular torus in integers, a = [[1, 1], [1, 2]] and
  b = [[1, -1], [-1, 2]]: the commutator subgroup of SL(2, Z), free, with
  tr[a, b] = -2, a cusp; and its (a, ab) move;
- Sym^2 images of the x = 3 and x = 4 tori and of sanov-unipotent, at face
  (1, 2): composing with the irreducible SL(2) -> SL(3) keeps an Anosov
  group Anosov (Guichard-Wienhard, Invent. Math. 2012), and unipotents
  unipotent.

n = 2 rows run sl2-schottky's options, n = 3 rows sl3-symsq-schottky's
(the bundled rows their own).  Each verdict's main figure is pinned to the
digits measured: uru's ``c_certificate``, morse's ``rho``, limit's
``antipodality_margin`` (or its ``conical_sup`` where that fails it) and
anosov's ``max_slope_deviation``.
"""

import json

import numpy as np
import pytest

from anosovcheck.cli import CHECKER_ORDER, bundled_config_path
from anosovcheck.subgroup import symmetric_square
from conftest import torus_pres

D = np.diag([2.0, 0.5])
MODULAR = [np.array([[1.0, 1.0], [1.0, 2.0]]), np.array([[1.0, -1.0], [-1.0, 2.0]])]


def bundled(name):
    raw = json.loads(bundled_config_path(name).read_text())
    return [np.array(m, dtype=float) for m in raw["generators"]]


def conjugated(gens):
    return [D @ g @ np.linalg.inv(D) for g in gens]


def nielsen(gens):
    a, b = gens
    return [a, a @ b]


def sym2(gens):
    return [symmetric_square(g) for g in gens]


def torus(x):
    return list(torus_pres(x).generators)


# row: (generators, options' config, label, verdicts uru/morse/limit/anosov as measured,
#       main figures as measured, None where not pinned)
ATLAS = {
    "sl2-schottky": (lambda: bundled("sl2-schottky"), "sl2-schottky", True, "TTTT",
                     ("1.437", "0.779", "0.447", "0.181")),
    "sl3-symsq-schottky": (lambda: bundled("sl3-symsq-schottky"), "sl3-symsq-schottky", True,
                           "TTTT", ("2.910", "1.583", "0.258", "0.184")),
    "sl2-schottky-D": (lambda: conjugated(bundled("sl2-schottky")), "sl2-schottky", True, "TFTF",
                       (None, "1.643", "0.138", "0.305")),
    "sl2-schottky-a-ab": (lambda: nielsen(bundled("sl2-schottky")), "sl2-schottky", True, "TFFF",
                          (None, "2.615", "conical_sup 2.61", "0.595")),
    "torus-3.1": (lambda: torus(3.1), "sl2-schottky", True, "TFTF",
                  ("0.502", "1.620", None, "0.394")),
    "torus-3.5": (lambda: torus(3.5), "sl2-schottky", True, "TFTF",
                  ("0.813", "1.376", None, "0.344")),
    "torus-4": (lambda: torus(4.0), "sl2-schottky", True, "TFTF",
                ("1.001", "1.282", None, "0.310")),
    "torus-6": (lambda: torus(6.0), "sl2-schottky", True, "TFTF",
                ("1.353", "1.260", None, "0.257")),
    "sym2-torus-4": (lambda: sym2(torus(4.0)), "sl3-symsq-schottky", True, "TFFF",
                     ("2.036", "2.602", "conical_sup 2.57", "0.342")),
    "sanov-unipotent": (lambda: bundled("sanov-unipotent"), "sanov-unipotent", False, "FFTF",
                        ("0.034", None, "0.0588", None)),
    "sanov-D": (lambda: conjugated(bundled("sanov-unipotent")), "sl2-schottky", False, "FFFF",
                (None, None, None, None)),
    "sanov-a-ab": (lambda: nielsen(bundled("sanov-unipotent")), "sl2-schottky", False, "FFFF",
                   (None, None, None, None)),
    "torus-3": (lambda: torus(3.0), "sl2-schottky", False, "TFTF",
                ("0.384", None, "0.125", None)),
    "modular-torus": (lambda: MODULAR, "sl2-schottky", False, "TFTF",
                      ("0.384", None, "0.125", None)),
    "modular-torus-a-ab": (lambda: nielsen(MODULAR), "sl2-schottky", False, "TFFF",
                           ("0.418", None, "conical_sup 2.35", None)),
    "sym2-torus-3": (lambda: sym2(torus(3.0)), "sl3-symsq-schottky", False, "TFFF",
                     ("0.881", None, "0.0219", None)),
    "sym2-sanov": (lambda: sym2(bundled("sanov-unipotent")), "sl3-symsq-schottky", False, "TFFF",
                   ("0.069", None, "0.0049", None)),
}
FIGURES = {"uru": "c_certificate", "morse": "rho", "limit": "antipodality_margin",
           "anosov": "max_slope_deviation"}


def cells():
    for row, (_, _, label, verdicts, _) in ATLAS.items():
        for checker, measured in zip(CHECKER_ORDER, verdicts):
            marks = []
            if (measured == "T") != label:
                marks.append(pytest.mark.xfail(strict=True, reason=f"measured {measured}"))
            yield pytest.param(row, checker, id=f"{row}-{checker}", marks=marks)


@pytest.mark.parametrize("row, checker", cells())
def test_verdict_is_the_label(atlas_reports, row, checker):
    assert atlas_reports(row)[checker]["verdict"] is ATLAS[row][2]


@pytest.mark.parametrize("row", ATLAS)
def test_figures_as_measured(atlas_reports, row):
    reports, figures = atlas_reports(row), ATLAS[row][4]
    for checker, text in zip(CHECKER_ORDER, figures):
        if text is None:
            continue
        key, digits = text.split() if " " in text else (FIGURES[checker], text)
        decimals = len(digits.split(".")[1])
        assert f"{reports[checker]['constants'][key]:.{decimals}f}" == digits, (checker, key)

