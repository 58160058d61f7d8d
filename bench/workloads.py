"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Each workload draws its inputs from the seed given on the command line; the
package only ever sees the generated configs and files. An op is what the
closed loop times. check() runs outside the timed region and returns the
op's result value (for the digest) and a list of problems; oracle() re-derives
b_inf for a few sampled ops through scipy, independently of the package's
eigh-based fidelity.
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys

import numpy as np

import alphaprobe
import speedref
from child import ChildRun, run_child
from alphaprobe import (
    REFERENCE_SIGMA_HZ,
    DensityMatrix,
    GaussianSpectrum,
    ProbingRecord,
    WavePlate,
    WavePlateStack,
    apply_channel,
    default_alpha_grid,
    discretize_pair,
    matrix_to_json,
    parse_scenario,
    reconstruct,
    reference_record,
    rng_stream,
    sample_counts,
    tightest_bound,
)
from alphaprobe.tomography import born_probabilities
from alphaprobe.scenario import SCHEMA_VERSION

MU0 = 3.7e14
SOUNDNESS_RTOL = 1e-6
# the Monte-Carlo mean must sit within this many standard errors of the
# exact-state b_inf; measured offsets stay below 1.5 standard errors
MC_WINDOW_SE = 5.0
# b_inf = sqrt(a (a-1) dmu^2 / 2 ln f) turns an absolute fidelity error e into
# a relative b_inf error of about e / (2 |ln f|). Two double-precision routes
# agree on a qubit fidelity to about 1e-14 (checked against 50-digit
# arithmetic), so the oracle allows ORACLE_FIDELITY_ATOL / |ln f|, and never
# less than ORACLE_RTOL. Near-uninformative ops (b_inf hundreds of dmu,
# |ln f| near 1e-10) need the wider window: there the Schur-Pade power is
# the less accurate of the two routes.
ORACLE_RTOL = 1e-6
ORACLE_FIDELITY_ATOL = 1e-13
# the oracle evaluates every ORACLE_STRIDE-th grid point plus the optimum
ORACLE_STRIDE = 10
CHILD_TIMEOUT_S = 60.0
ALPHA_ROWS = default_alpha_grid().size


def _rand_state(rng: np.random.Generator) -> np.ndarray:
    """Full-rank qubit state from a Ginibre factor, exactly Hermitian."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---- independent oracle --------------------------------------------------

def _scipy_half_power(rho: np.ndarray, p: float) -> np.ndarray:
    import scipy.linalg as sla

    w, v = sla.eigh(rho, driver="evr")
    if w.min() >= 1e-12:
        return sla.fractional_matrix_power(rho, p)
    # Schur-Pade powers of a singular matrix are inaccurate at small p, so a
    # rank-deficient state takes its spectral power with 0^p = 0 instead
    wp = np.where(w < 1e-12, 0.0, np.clip(w, 0.0, None) ** p)
    return (v * wp) @ v.conj().T


def _oracle_fidelity(rho1: np.ndarray, rho2: np.ndarray, alpha: float) -> float:
    import scipy.linalg as sla

    half = _scipy_half_power(rho2, (1.0 - alpha) / (2.0 * alpha))
    sandwich = half @ rho1 @ half
    sandwich = (sandwich + sandwich.conj().T) / 2
    w = np.clip(sla.eigh(sandwich, eigvals_only=True, driver="evr"), 0.0, None)
    return min(float(np.sum(w**alpha)), 1.0)


def _oracle_bound(record: ProbingRecord, alpha: float) -> float | None:
    r1, r2 = record.rho1.matrix, record.rho2.matrix
    p1, p2 = record.phi1_rho1.matrix, record.phi2_rho2.matrix
    best = None
    for num, den in (((p1, p2), (r1, r2)), ((p2, p1), (r2, r1))):
        d = _oracle_fidelity(*den, alpha)
        if d == 0.0:
            continue
        f = _oracle_fidelity(*num, alpha) / d
        if f < 1.0:
            b = math.sqrt(alpha * (alpha - 1.0) * record.delta_mu**2 / (2.0 * math.log(f)))
            best = b if best is None else min(best, b)
    return best


def oracle_check(record: ProbingRecord, b_inf: float | None, alpha_star) -> list[str]:
    """Re-derive b_inf through scipy on a thinned grid plus the optimum.

    The oracle's bound at the package's alpha* must equal b_inf, and no
    thinned-grid point may undercut it.
    """
    alphas = default_alpha_grid()
    problems = []
    lowest = None
    for a in alphas[::ORACLE_STRIDE]:
        b = _oracle_bound(record, float(a))
        if b is not None and (lowest is None or b < lowest):
            lowest = b
    if b_inf is None:
        # a bound above 1e6 dmu needs |ln f| below about 1e-13, a fraction
        # within rounding of 1; anything tighter is a genuine disagreement
        if lowest is not None and lowest < 1e6 * record.delta_mu:
            problems.append(f"package found no bound, oracle found {lowest:.6e} Hz")
        return problems
    a = float(alpha_star)
    log_f = a * (1.0 - a) * record.delta_mu**2 / (2.0 * b_inf**2)
    rtol = max(ORACLE_RTOL, ORACLE_FIDELITY_ATOL / log_f)
    at_star = _oracle_bound(record, a)
    if at_star is None or abs(at_star - b_inf) > rtol * b_inf:
        problems.append(f"oracle bound at alpha* is {at_star}, package b_inf {b_inf:.12e}"
                        f" (tolerance {rtol:.1e})")
    if lowest is not None and lowest < b_inf * (1.0 - rtol):
        problems.append(f"oracle grid point undercuts b_inf: {lowest:.12e} < {b_inf:.12e}")
    return problems


def _run_config(config: dict, op_dir: str):
    # looked up on the package at call time, so the tracer's wrappers apply
    return alphaprobe.run_scenario(alphaprobe.parse_scenario(config), op_dir)


def _check_curve_csv(path: str) -> list[str]:
    rows = _csv_rows(path)
    if not rows or rows[0][:1] != ["alpha"]:
        return [f"{os.path.basename(path)} has no header"]
    if len(rows) - 1 != ALPHA_ROWS:
        return [f"{os.path.basename(path)} has {len(rows) - 1} rows, expected {ALPHA_ROWS}"]
    return []


# ---- mc-tomography -------------------------------------------------------

class McTomography:
    """Monte-Carlo tomography error bars on the bundled demonstration record."""

    name = "mc-tomography"
    in_process = True
    TIMES_S = (10.0, 60.0, 360.0)
    REPLICAS = 100
    RATE_HZ = 200.0
    KERNEL_REPS = 60  # about a fifth of an op

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([0x6D63, seed])
        self.seed_base = int(rng.integers(0, 2**31))
        self.truth = reference_record()
        self.exact = tightest_bound(self.truth, default_alpha_grid()).optimum.value

    def make_input(self, i: int) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "coupling": "paper-matrices",
            "tomography": {
                "integration_time_s": self.TIMES_S[i % len(self.TIMES_S)],
                "count_rate_hz": self.RATE_HZ,
                "seed": self.seed_base + i,
                "replicas": self.REPLICAS,
            },
        }

    def label(self, config: dict) -> str:
        return f"{config['tomography']['integration_time_s']:g}s"

    def reference(self) -> float:
        return speedref.kernel(self.KERNEL_REPS)

    def run(self, config: dict, op_dir: str, trace_path=None):
        return _run_config(config, op_dir)

    def check(self, config: dict, report, op_dir: str):
        results = report.summary["results"]
        mc = results["monte_carlo"]
        problems = []
        if not mc["no_info_fraction"] < 1.0:
            problems.append(f"no_info_fraction is {mc['no_info_fraction']}")
        stderr = mc["std_b_inf_hz"] / math.sqrt(mc["replicas"] * (1.0 - mc["no_info_fraction"]))
        offset = mc["mean_b_inf_hz"] - self.exact
        if not abs(offset) <= MC_WINDOW_SE * stderr:
            problems.append(
                f"replica mean {mc['mean_b_inf_hz']:.6e} is {offset / stderr:.1f} standard "
                f"errors from the exact-state b_inf {self.exact:.6e}"
            )
        problems += _check_curve_csv(os.path.join(op_dir, "bound_curve.csv"))
        value = (mc["mean_b_inf_hz"], mc["std_b_inf_hz"], results["b_inf_hz"])
        keep = (results["b_inf_hz"], results["alpha_star"])
        return value, problems, keep

    def oracle(self, config: dict, keep) -> list[str]:
        """Replica 0's record, rebuilt from its streams, against the oracle."""
        tomo = parse_scenario(config).tomography
        estimates = []
        truth_states = (self.truth.rho1, self.truth.rho2, self.truth.phi1_rho1,
                        self.truth.phi2_rho2)
        for k, state in enumerate(truth_states):
            probs = {b.name: born_probabilities(state, b) for b in tomo.bases}
            counts = sample_counts(probs, tomo, rng_stream(tomo.seed, (0, k)))
            estimates.append(reconstruct(counts, tomo.bases))
        record = ProbingRecord(*estimates, delta_mu=self.truth.delta_mu)
        return oracle_check(record, *keep)

    def oracle_exact(self) -> list[str]:
        """The exact-state centre of the statistical window, through the oracle."""
        curve = tightest_bound(self.truth, default_alpha_grid())
        problems = oracle_check(self.truth, curve.optimum.value, curve.optimum.alpha)
        ratio = self.exact / REFERENCE_SIGMA_HZ
        if abs(ratio - 1.821) > 1e-3:
            problems.append(f"exact-state b_inf is {ratio:.4f} sigma, expected 1.821")
        return problems


# ---- random-scenarios ----------------------------------------------------

class RandomScenarios:
    """Random plate stacks, widths and probes in exact-states mode."""

    name = "random-scenarios"
    in_process = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def make_input(self, i: int) -> dict:
        rng = np.random.default_rng([0x7273, self.seed, i])
        sigma = float(rng.uniform(2e11, 1e12))
        delta_mu = sigma * float(rng.uniform(0.3, 3.0))
        plates = [
            {
                "thickness_mm": float(rng.uniform(0.5, 10.0)),
                "orientation_deg": float(rng.uniform(0.0, 180.0)),
            }
            for _ in range(int(rng.integers(1, 6)))
        ]
        if i % 2 == 0:
            probes = {"rho1": "plus", "rho2": "plus"}
        else:
            probes = {
                "rho1": matrix_to_json(_rand_state(rng)),
                "rho2": matrix_to_json(_rand_state(rng)),
            }
        return {
            "schema": SCHEMA_VERSION,
            "spectra": {
                "first": {"mu_hz": MU0, "sigma_hz": sigma},
                "second": {"mu_hz": MU0 + delta_mu, "sigma_hz": sigma},
            },
            "probes": probes,
            "coupling": {"plates": plates},
        }

    def label(self, config: dict) -> str:
        return f"{len(config['coupling']['plates'])} plates"

    def reference(self) -> float:
        return speedref.kernel(1)

    def run(self, config: dict, op_dir: str, trace_path=None):
        return _run_config(config, op_dir)

    def check(self, config: dict, report, op_dir: str):
        results = report.summary["results"]
        sigma = config["spectra"]["first"]["sigma_hz"]
        problems = _check_curve_csv(os.path.join(op_dir, "bound_curve.csv"))
        b_inf = results["b_inf_hz"]
        if b_inf is not None and sigma > b_inf * (1.0 + SOUNDNESS_RTOL):
            problems.append(f"unsound bound: sigma {sigma:.6e} > b_inf {b_inf:.6e}")
        return b_inf, problems, (b_inf, results["alpha_star"])

    def oracle(self, config: dict, keep) -> list[str]:
        """The exact evolved record, rebuilt from the config, against the oracle."""
        spec = config["spectra"]
        s1 = GaussianSpectrum(spec["first"]["mu_hz"], spec["first"]["sigma_hz"])
        s2 = GaussianSpectrum(spec["second"]["mu_hz"], spec["second"]["sigma_hz"])
        stack = WavePlateStack(plates=tuple(
            WavePlate(p["thickness_mm"] * 1e-3, math.radians(p["orientation_deg"]))
            for p in config["coupling"]["plates"]
        ))
        config_probes = parse_scenario(config).probes
        g1, g2 = discretize_pair(s1, s2)
        record = ProbingRecord(
            rho1=config_probes[0],
            rho2=config_probes[1],
            phi1_rho1=apply_channel(stack, s1, config_probes[0], g1),
            phi2_rho2=apply_channel(stack, s2, config_probes[1], g2),
            delta_mu=abs(s2.mu - s1.mu),
        )
        return oracle_check(record, *keep)


# ---- cli-cold ------------------------------------------------------------

class CliCold:
    """Fresh `python -m alphaprobe.cli` processes, one at a time."""

    name = "cli-cold"
    in_process = False
    COMMANDS = ("reproduce-fig4", "bound", "afid", "tomography", "simulate")

    def __init__(self, seed: int, workdir: str, env: dict, bench_dir: str) -> None:
        self.env = env
        self.bench_dir = bench_dir
        rng = np.random.default_rng([0x636C, seed])
        self.seed_base = int(rng.integers(0, 2**31))
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        rho1, rho2 = _rand_state(rng), _rand_state(rng)
        self.sigma = float(rng.uniform(2e11, 1e12))
        delta_mu = self.sigma * float(rng.uniform(0.3, 3.0))
        plate = {"thickness_mm": float(rng.uniform(0.5, 10.0)),
                 "orientation_deg": float(rng.uniform(0.0, 180.0))}
        s1 = GaussianSpectrum(MU0, self.sigma)
        s2 = GaussianSpectrum(MU0 + delta_mu, self.sigma)
        stack = WavePlateStack(plates=(
            WavePlate(plate["thickness_mm"] * 1e-3, math.radians(plate["orientation_deg"])),
        ))
        g1, g2 = discretize_pair(s1, s2)
        d1, d2 = DensityMatrix(rho1), DensityMatrix(rho2)
        self.record = ProbingRecord(
            rho1=d1,
            rho2=d2,
            phi1_rho1=apply_channel(stack, s1, d1, g1),
            phi2_rho2=apply_channel(stack, s2, d2, g2),
            delta_mu=delta_mu,
        )
        record = {
            "rho1": d1.to_json(),
            "rho2": d2.to_json(),
            "phi1_rho1": self.record.phi1_rho1.to_json(),
            "phi2_rho2": self.record.phi2_rho2.to_json(),
            "delta_mu_hz": delta_mu,
        }
        scenario = {
            "schema": SCHEMA_VERSION,
            "spectra": {
                "first": {"mu_hz": MU0, "sigma_hz": self.sigma},
                "second": {"mu_hz": MU0 + delta_mu, "sigma_hz": self.sigma},
            },
            "probes": {"rho1": record["rho1"], "rho2": record["rho2"]},
            "coupling": {"plates": [plate]},
        }
        self.paths = {}
        for name, payload in (("rho1", record["rho1"]), ("rho2", record["rho2"]),
                              ("record", record), ("scenario", scenario)):
            self.paths[name] = os.path.join(inputs, f"{name}.json")
            with open(self.paths[name], "w", encoding="utf-8") as fh:
                json.dump(payload, fh)

    def make_input(self, i: int) -> dict:
        command = self.COMMANDS[i % len(self.COMMANDS)]
        return {"command": command, "seed": self.seed_base + i}

    def label(self, inp: dict) -> str:
        return inp["command"]

    def reference(self) -> float:
        return speedref.cold_start(self.env)

    def _argv(self, inp: dict, op_dir: str) -> list[str]:
        p = self.paths
        return {
            "reproduce-fig4": ["reproduce-fig4", "--out", op_dir],
            "bound": ["bound", "--record", p["record"], "--out", op_dir],
            "afid": ["afid", "--rho1", p["rho1"], "--rho2", p["rho2"],
                     "--csv", os.path.join(op_dir, "afid.csv")],
            "tomography": ["tomography", "--state", p["rho1"], "--time", "60",
                           "--rate", "200", "--seed", str(inp["seed"]), "--out", op_dir],
            "simulate": ["simulate", "--config", p["scenario"], "--out", op_dir],
        }[inp["command"]]

    def run(self, inp: dict, op_dir: str, trace_path=None) -> ChildRun:
        os.makedirs(op_dir, exist_ok=True)
        if trace_path is None:
            launcher = [sys.executable, "-m", "alphaprobe.cli"]
        else:
            launcher = [sys.executable, os.path.join(self.bench_dir, "cli_child.py"),
                        trace_path]
        with open(os.path.join(op_dir, "stderr.txt"), "wb") as err:
            return run_child(launcher + self._argv(inp, op_dir), self.env, CHILD_TIMEOUT_S,
                             stderr=err)

    def check(self, inp: dict, child: ChildRun, op_dir: str):
        if child.code != 0:
            with open(os.path.join(op_dir, "stderr.txt"), "r", encoding="utf-8") as fh:
                tail = fh.read().strip().splitlines()[-1:] or [""]
            return None, [f"{inp['command']} exited {child.code}: {tail[0]}"], None
        command = inp["command"]
        problems: list[str] = []
        value = keep = None
        try:
            if command == "afid":
                rows = _csv_rows(os.path.join(op_dir, "afid.csv"))
                values = [float(r[1]) for r in rows[1:]]
                if len(values) != ALPHA_ROWS or not all(0.0 <= v <= 1.0 for v in values):
                    problems.append(f"afid.csv: {len(values)} fidelities, not all in [0, 1]")
                value = rows[-1][1]
            elif command == "tomography":
                counts = _load_json(os.path.join(op_dir, "counts.json"))
                state = _load_json(os.path.join(op_dir, "reconstructed.json"))
                DensityMatrix(np.asarray(state["re"]) + 1j * np.asarray(state["im"]))
                if sorted(counts) != ["circ", "diag", "hv"]:
                    problems.append(f"counts.json has bases {sorted(counts)}")
                value = counts
            else:
                curve = "fig4_bounds.csv" if command == "reproduce-fig4" else "bound_curve.csv"
                problems += _check_curve_csv(os.path.join(op_dir, curve))
                if command == "reproduce-fig4":
                    problems += _check_curve_csv(os.path.join(op_dir, "fig4_fractions.csv"))
                results = _load_json(os.path.join(op_dir, "summary.json"))["results"]
                value = results["b_inf_hz"]
                if command != "reproduce-fig4":
                    keep = (value, results["alpha_star"])
                if command == "simulate" and value is not None \
                        and self.sigma > value * (1.0 + SOUNDNESS_RTOL):
                    problems.append(f"unsound bound: sigma {self.sigma:.6e} > b_inf {value:.6e}")
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{command} artifacts do not parse: {exc!r}")
        return value, problems, keep

    def oracle(self, inp: dict, keep) -> list[str]:
        """bound and simulate both describe the generated record."""
        return oracle_check(self.record, *keep)


WORKLOADS = {cls.name: cls for cls in (McTomography, RandomScenarios, CliCold)}
