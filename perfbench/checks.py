"""Output checkers for the benchmark workloads.

Each checker compares the program's output with a computation made apart
from the program (closed forms, ``mpmath``, ``bisect``) or with a property
the method must have (counts that add up, Poisson and binomial bands). It
returns a list of problems; an empty list means the output is correct.
Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math

import numpy as np

REL = 1e-12    # relative tolerance for closed forms printed with 17 digits
SIGMAS = 5.0   # width of the statistical bands


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(b), 1e-300)


def _csv_rows(text: str) -> list[dict]:
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _footer(text: str) -> dict | None:
    for line in text.splitlines():
        if line.startswith("# "):
            return json.loads(line[2:])
    return None


def _records(text: str, fmt: str, key: str) -> tuple[list[dict], dict]:
    """Rows and trailing metadata of a CLI output in either format."""
    if fmt == "json":
        data = json.loads(text)
        return data[key], data
    return _csv_rows(text), (_footer(text) or {})


# ----------------------------------------------------------- residual_sweep


def check_verify(text: str, min_checks: int = 7) -> list[str]:
    """Every check of a ``verify`` output passes and stays within tolerance."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        checks = json.loads(stripped)["checks"]
    else:
        checks = [{"name": r["check"], "max_residual": float(r["max_residual"]),
                   "tolerance": float(r["tolerance"]), "pass": r["pass"] == "true"}
                  for r in _csv_rows(text)]
    problems = []
    if len(checks) < min_checks:
        problems.append(f"verify: {len(checks)} checks, expected at least {min_checks}")
    for c in checks:
        if not c["pass"] or not float(c["max_residual"]) <= float(c["tolerance"]):
            problems.append(f"verify: check {c['name']} failed: "
                            f"{c['max_residual']} > {c['tolerance']}")
    return problems


def check_eval_psi(samples, values, rel: float = 1e-13) -> list[str]:
    """``eval_psi(z, x + iy)`` against ``z**c`` in 40-digit ``mpmath``."""
    import mpmath

    problems = []
    with mpmath.workdps(40):
        for (z, x, y), got in zip(samples, values):
            exact = complex(mpmath.power(mpmath.mpf(z), mpmath.mpc(x, y)))
            if abs(got - exact) > rel * abs(exact):
                problems.append(f"eval_psi({z!r}, {x!r}+{y!r}i) = {got!r}, "
                                f"mpmath gives {exact!r}")
    return problems


def exponential_residual(points: np.ndarray, a_x: float, a_y: float, a_t: float,
                         c: complex, hbar: float, mass: float, u_f: float):
    """Closed-form residual of z = exp(a_x r_x + a_y r_y + a_t t).

    Substituting z gives z (i hbar a_t + (hbar^2/2m) c (a_x^2 + a_y^2) - U/c);
    (R) is its real part and (I) its imaginary part. Also returns the sum of
    the magnitudes of the three terms, the scale for relative tolerances.
    """
    rx, ry, t = points[:, 0], points[:, 1], points[:, 2]
    z = np.exp(a_x * rx + a_y * ry + a_t * t)
    kin = hbar * hbar / (2.0 * mass) * c * (a_x * a_x + a_y * a_y)
    bracket = 1j * hbar * a_t + kin - u_f / c
    scale = z * (abs(hbar * a_t) + abs(kin) + abs(u_f / c))
    return z * bracket, scale


def check_grid_csv(text: str, axes, field: dict, c: complex, hbar: float,
                   mass: float, u_f: float, rel: float,
                   max_abs_imag: float | None = None) -> list[str]:
    """A ``GridReport.write_csv`` output for an exponential field.

    Checks the row count and the lattice, the closed-form (R) and (I)
    residuals at every point to ``rel`` of the term scale, and optionally a
    bound on the largest (I) residual.
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    col = {name: i for i, name in enumerate(header)}
    problems = []
    n_expected = math.prod(len(a) for a in axes)
    if data.shape[0] != n_expected:
        return [f"grid {field['name']}: {data.shape[0]} rows, expected {n_expected}"]
    pts = data[:, [col["r_x"], col["r_y"], col["t"]]]
    lattice = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T
    order = np.lexsort(pts.T[::-1])
    if not np.array_equal(pts[order], lattice[np.lexsort(lattice.T[::-1])]):
        problems.append(f"grid {field['name']}: points are not the lattice")
    expected, scale = exponential_residual(pts, field["a_x"], field["a_y"],
                                           field["a_t"], c, hbar, mass, u_f)
    for part, column, exp in (("R", "residual_real", expected.real),
                              ("I", "residual_imag", expected.imag)):
        err = np.abs(data[:, col[column]] - exp) / scale
        worst = int(np.argmax(err))
        if not err[worst] <= rel:
            problems.append(f"grid {field['name']}: ({part}) residual off by "
                            f"{err[worst]:.3g} of scale at {tuple(pts[worst])}")
    if max_abs_imag is not None:
        worst = float(np.max(np.abs(data[:, col["residual_imag"]])))
        if not worst <= max_abs_imag:
            problems.append(f"grid {field['name']}: max |I| = {worst:.3g} "
                            f"> {max_abs_imag:g}")
    return problems


# ---------------------------------------------------------------- ensemble


def lifetimes(cfg: dict) -> tuple[float, float]:
    """(1-vortex, 0-vortex) lifetimes from the paper's closed forms."""
    k, s, beta, eps = cfg["k"], cfg["s"], cfg["beta"], cfg.get("epsilon", 1e-6)
    return s / (3 * k * beta), (math.log(1 / eps) - k * s) / (3 * k * k * beta)


def _band(name: str, count: float, mean: float, var: float) -> list[str]:
    if abs(count - mean) > SIGMAS * math.sqrt(max(var, 1.0)):
        return [f"{name} = {count}, expected {mean:.6g} +- "
                f"{SIGMAS:g} x {math.sqrt(max(var, 1.0)):.4g}"]
    return []


def parse_ensemble_report(text: str) -> dict:
    stripped = text.strip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    row = _csv_rows(stripped)[0]
    return {k: (v if k == "bit_sequence_digest" else float(v)) for k, v in row.items()}


def check_ensemble(cfg: dict, rep: dict, bits: bytes | None = None) -> list[str]:
    """An ensemble report, and optionally its ``--bits-out`` file.

    Counts must add up; produced and per-branch counts lie in Poisson and
    binomial bands; emitted counts lie in the band of
    rate_b (horizon - lifetime_b); the digest is the prefix of the bit
    stream; the run of 1s before the first 0 matches rate_1 (t0 - t1).
    """
    problems = []
    pz, po = rep["produced_zero"], rep["produced_one"]
    ez, eo = rep["emitted_zero"], rep["emitted_one"]
    if rep["live_zero"] != pz - ez or rep["live_one"] != po - eo:
        problems.append("ensemble: live != produced - emitted")
    if not (0 <= ez <= pz and 0 <= eo <= po):
        problems.append("ensemble: emitted exceeds produced")
    rate, r, horizon = cfg["pair_production_rate"], cfg["ratio_zero_to_one"], cfg["horizon"]
    p0 = r / (1 + r)
    mean = rate * horizon
    produced = pz + po
    problems += _band("ensemble produced", produced, mean, mean)
    problems += _band("ensemble produced_zero", pz, produced * p0,
                      produced * p0 * (1 - p0))
    t1, t0 = lifetimes(cfg)
    rate0, rate1 = rate * p0, rate * (1 - p0)
    mu0 = rate0 * max(horizon - t0, 0.0)
    mu1 = rate1 * max(horizon - t1, 0.0)
    problems += _band("ensemble emitted_zero", ez, mu0, mu0)
    problems += _band("ensemble emitted_one", eo, mu1, mu1)
    digest = rep["bit_sequence_digest"]
    if len(digest) != min(cfg.get("digest_bits", 64), ez + eo) or set(digest) - {"0", "1"}:
        problems.append(f"ensemble: malformed digest {digest!r}")
    if bits is None:
        return problems
    stream = bits[:-1] if bits.endswith(b"\n") else bits
    if len(stream) != ez + eo or stream.count(b"0") != ez or stream.count(b"1") != eo:
        problems.append(f"ensemble: bit file holds {len(stream)} bits "
                        f"({stream.count(b'0')} zeros), report says {ez + eo} ({ez})")
    if not stream.startswith(digest.encode()):
        problems.append("ensemble: digest is not the prefix of the bit file")
    if ez and t0 > t1:
        # 1-vortices born before the first 0-vortex's arrival plus t0 - t1;
        # the first arrival adds 1/rate0 on average.
        run = stream.index(b"0")
        mean_run = rate1 * (t0 - t1) + rate1 / rate0
        problems += _band("ensemble leading run of 1s", run, mean_run, mean_run)
    return problems


# ----------------------------------------------------------------- cli_mix


def check_trajectory(params: dict, text: str, fmt: str) -> list[str]:
    """radius = exp(+-ks - 3k^2 beta t), u^2 + v^2 = radius^2,
    gradient_radius = sqrt(2) k radius, and the footer's t* = s/(3 k beta)."""
    hbar, mass = params.get("hbar", 1.0), params.get("mass", 1.0)
    beta = hbar / mass
    k = params["k"] if "k" in params else math.sqrt(
        2 * mass * params["u_f"] / (5 * hbar * hbar))
    s, steps, t_max = params.get("s", 1.0), params["steps"], params.get("t_max", 1.0)
    sign = 1 if params.get("branch", "one_vortex") == "one_vortex" else -1
    rows, meta = _records(text, fmt, "points")
    problems = []
    if len(rows) != steps:
        problems.append(f"trajectory: {len(rows)} rows, expected {steps}")
    for i, row in enumerate(rows):
        t, u, v = float(row["t"]), float(row["u"]), float(row["v"])
        radius, grad = float(row["radius"]), float(row["gradient_radius"])
        expected_r = math.exp(sign * k * s - 3 * k * k * beta * t)
        if not (_close(t, t_max * i / (steps - 1))
                and _close(radius, expected_r)
                and _close(u * u + v * v, expected_r * expected_r)
                and _close(grad, math.sqrt(2) * k * expected_r)):
            problems.append(f"trajectory row {i}: {row} (radius {expected_r!r})")
            break
    t_star = meta.get("collapse_time")
    expected_t = s / (3 * k * beta) if sign == 1 else None
    if (t_star is None) != (expected_t is None) or (
            t_star is not None and not _close(t_star, expected_t)):
        problems.append(f"trajectory: collapse_time {t_star}, expected {expected_t}")
    return problems


def check_ladder(params: dict, text: str, fmt: str) -> list[str]:
    """j = bisect_right(E_list, E) - 1 and k = sqrt(m E_j / (6 hbar^2))."""
    hbar, mass = params.get("hbar", 1.0), params.get("mass", 1.0)
    ev = [float(e) for e in params["eigenvalues"]]
    schedule = params["schedule"]
    rows, _ = _records(text, fmt, "trace")
    problems = []
    if len(rows) != len(schedule):
        problems.append(f"ladder: {len(rows)} rows, expected {len(schedule)}")
    for i, (row, e) in enumerate(zip(rows, schedule)):
        j = bisect.bisect_right(ev, e) - 1
        k = math.sqrt(mass * ev[j] / (6 * hbar * hbar))
        if (int(row["step"]) != i or float(row["E"]) != e or int(row["j"]) != j
                or not _close(float(row["k"]), k)):
            problems.append(f"ladder step {i}: {row}, expected j={j} k={k!r}")
            break
    return problems


def check_geometry(params: dict, text: str, fmt: str) -> list[str]:
    """Rows follow (+-kz, +-kz, z), (-k/z, -k/z, 1/z) and (k^2 z^2, k^2 z^2, z^2)
    with n rows per segment, n - 1 involution images and 2n squared points."""
    k, n = params.get("k", 1.0), params.get("n", 50)
    z_max = params.get("z_max", 4.0)
    z_min = params.get("z_min", 1.0 / z_max)
    rows, _ = _records(text, fmt, "points")
    expected_counts = {"segment_one": n, "segment_zero": n,
                       "involution": n - 1, "squared": 2 * n}
    counts = {kind: 0 for kind in expected_counts}
    problems = []
    for row in rows:
        kind = row["kind"]
        z, p = float(row["z"]), (float(row["px"]), float(row["py"]), float(row["pz"]))
        lo, hi = z_min * (1 - REL), z_max * (1 + REL)
        if kind == "segment_one":
            want, ok_z = (k * z, k * z, z), 1.0 <= z <= hi
        elif kind == "segment_zero":
            want, ok_z = (-k * z, -k * z, z), lo <= z <= 1.0
        elif kind == "involution":
            want, ok_z = (-k / z, -k / z, 1 / z), 1.0 < z <= hi
        elif kind == "squared":
            want, ok_z = (k * k * z * z, k * k * z * z, z * z), lo <= z <= hi
        else:
            problems.append(f"geometry: unknown kind {kind!r}")
            continue
        counts[kind] += 1
        if not ok_z or not all(_close(a, b) for a, b in zip(p, want)):
            problems.append(f"geometry: {row}, expected {want}")
            break
    if counts != expected_counts:
        problems.append(f"geometry: counts {counts}, expected {expected_counts}")
    return problems
