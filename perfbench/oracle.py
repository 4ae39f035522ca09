"""Independent high-precision reference for the numbers the reports publish.

Word products are formed in 200-digit ``mpmath`` arithmetic from the
config's generators and their exact inverses, so the reference carries
none of the double-precision loss the checkers must avoid.  Checked:

- each limit-report ray's deepest ``deltas`` entry (centered log singular
  values) and its ``limit_flag_frame``, against the exact values and the
  exact top singular flag of the ray's full word;
- each uru ``slowest_words`` witness, against ``per_length_min``.
"""

from __future__ import annotations

import json

import mpmath
import numpy as np

DIGITS = 200


def _exact_svd(word, letters, n):
    m = mpmath.eye(n)
    for lt in word:
        m = m * letters[lt]
    u, s, _ = mpmath.svd_r(m)
    order = sorted(range(n), key=lambda i: s[i], reverse=True)
    logs = [mpmath.log(s[i]) for i in order]
    mean = sum(logs) / n
    frame = np.array([[float(u[r, c]) for c in order] for r in range(n)])
    return np.array([float(x - mean) for x in logs]), frame


def _flag_distance(f1: np.ndarray, f2: np.ndarray, dims) -> float:
    """Max operator-norm difference of the nested subspace projectors."""
    return max(float(np.linalg.norm(f1[:, :d] @ f1[:, :d].T - f2[:, :d] @ f2[:, :d].T, 2))
               for d in dims)


def check(cfg: dict, reports: dict[str, bytes]) -> dict:
    """Largest errors of published log singular values and limit flags."""
    n, dims = cfg["n"], cfg["face"]
    logsv_err = flag_err = 0.0
    checked = 0
    with mpmath.workdps(DIGITS):
        letters = {}
        for i, g in enumerate(cfg["generators"], start=1):
            letters[i] = mpmath.matrix(g)
            letters[-i] = mpmath.inverse(letters[i])
        if "limit.json" in reports:
            details = json.loads(reports["limit.json"])["details"]
            for i, ray in enumerate(details["rays"]):
                logs, frame = _exact_svd(ray["letters"], letters, n)
                published = np.asarray(details["deltas"][str(i)][-1])
                logsv_err = max(logsv_err, float(np.abs(published - logs).max()))
                flag_err = max(flag_err, _flag_distance(
                    np.asarray(ray["limit_flag_frame"]), frame, dims))
                checked += 1
        if "uru.json" in reports:
            uru = json.loads(reports["uru.json"])
            per_length_min = uru["constants"]["per_length_min"]
            for length, word in uru["witnesses"]["slowest_words"].items():
                logs, _ = _exact_svd(word, letters, n)
                exact = float(np.linalg.norm(logs))
                logsv_err = max(logsv_err, abs(per_length_min[int(length) - 1] - exact))
                checked += 1
    return {"logsv_err_max": logsv_err, "flag_err_max": flag_err, "words_checked": checked}
