"""Checks of acda's outputs against computations made apart from acda.

Every check returns a list of failure messages; an empty list means the
output passed.  The checks read what the program wrote (``MANIFEST.json``,
the run records, ``metrics.csv``, checkpoints) or returned (W1 values and
couplings) and recompute it with plain numpy and scipy: their own
checkpoint reader, their own forward pass, their own query bookkeeping, and
``scipy.optimize.linear_sum_assignment`` as the transport reference.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

W1_TOL = 1e-9

# ----------------------------------------------------------------------
# checkpoints and the forward pass

_ACTIVATIONS = {0: "tanh", 1: "relu", 2: "identity", 3: "softmax", 4: "sigmoid"}


def read_checkpoint(path: str) -> dict:
    """Parse the flat little-endian checkpoint layout into
    ``{name: (hidden, output, [(W, b), ...])}``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"ACDA":
        raise ValueError(f"{path}: bad magic")
    version, count = struct.unpack_from("<BB", blob, 4)
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    pos = 6
    nets = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<B", blob, pos)
        name = blob[pos + 1:pos + 1 + name_len].decode("utf8")
        pos += 1 + name_len
        (n_widths,) = struct.unpack_from("<I", blob, pos)
        widths = struct.unpack_from(f"<{n_widths}I", blob, pos + 4)
        pos += 4 + 4 * n_widths
        hidden, output, _seed = struct.unpack_from("<BBQ", blob, pos)
        pos += 10
        layers = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            w = np.frombuffer(blob, "<f8", fan_in * fan_out, pos).reshape(fan_in, fan_out)
            pos += 8 * fan_in * fan_out
            b = np.frombuffer(blob, "<f8", fan_out, pos)
            pos += 8 * fan_out
            layers.append((w, b))
        nets[name] = (_ACTIVATIONS[hidden], _ACTIVATIONS[output], layers)
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes")
    return nets


def mlp(net, x: np.ndarray) -> np.ndarray:
    """Dense network: tanh hidden layers, then the output activation."""
    hidden, output, layers = net
    if hidden != "tanh" or output not in ("identity", "softmax"):
        raise ValueError(f"unsupported activations {hidden}/{output}")
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < len(layers) - 1:
            h = np.tanh(h)
    if output == "softmax":
        e = np.exp(h - h.max(axis=1, keepdims=True))
        h = e / e.sum(axis=1, keepdims=True)
    return h


def checkpoint_accuracy(path: str, x: np.ndarray, y: np.ndarray) -> float:
    nets = read_checkpoint(path)
    probs = mlp(nets["C"], mlp(nets["F"], x))
    return float(np.mean(probs.argmax(axis=1) == y))


# ----------------------------------------------------------------------
# training outputs


def expected_query_counts(pool: int, budget: float, rounds: int) -> list:
    counts = []
    for _ in range(rounds):
        k = max(1, math.floor(budget / rounds * pool + 0.5))
        counts.append(k)
        pool -= k
    return counts


def model_steps(n_source: int, n_target: int, batch: int, counts: list,
                stage1_epochs: int, stage3_epochs: int) -> int:
    """Model steps the schedule implies: per epoch, the longest of the
    classification, target and adversarial-source batch streams."""
    def ceil(n):
        return -(-n // batch)

    steps = stage1_epochs * max(ceil(n_source), ceil(n_target))
    queried = 0
    for k in counts:
        queried += k
        steps += stage3_epochs * max(ceil(n_source), ceil(n_target - queried),
                                     ceil(n_source + queried))
    return steps


def check_training_run(out_dir: str, train: dict, seeds: list, pools: dict) -> list:
    """Check one ``run_experiment`` output directory.

    ``train`` holds budget, lambda_div, query_rounds, stage1_epochs and
    stage3_epochs; ``pools[seed]`` is ``(target_x, target_y)``: the
    standardised target features and the oracle labels of that seed's run.
    """
    errors = []
    try:
        with open(os.path.join(out_dir, "MANIFEST.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"MANIFEST.json unreadable: {exc}"]
    if manifest.get("status") != "ok":
        errors.append(f"manifest status {manifest.get('status')!r}")
    runs = {r.get("run"): r for r in manifest.get("runs", [])}
    if len(runs) != len(seeds):
        errors.append(f"manifest lists {len(runs)} runs for {len(seeds)} seeds")
    for seed in seeds:
        tag = f"active-seed{seed}"
        entry = runs.get(tag)
        if entry is None or entry.get("status") != "ok":
            errors.append(f"{tag}: missing or failed in the manifest")
            continue
        tx, ty = pools[seed]
        acc = checkpoint_accuracy(os.path.join(out_dir, entry["checkpoint"]), tx, ty)
        if abs(acc - entry["final_target_accuracy"]) >= 0.5 / len(ty):
            errors.append(f"{tag}: checkpoint gives target accuracy {acc!r}, "
                          f"manifest says {entry['final_target_accuracy']!r}")
        chance = np.bincount(ty).max() / len(ty)
        floor = chance + (1.0 - chance) / 4.0
        if not acc >= floor:
            errors.append(f"{tag}: target accuracy {acc:.4f} below floor {floor:.4f}")
        with open(os.path.join(out_dir, entry["record"]), encoding="utf-8") as fh:
            record = json.load(fh)
        errors += [f"{tag}: {e}" for e in check_record(record, train, ty)]
    errors += check_metrics_csv(os.path.join(out_dir, "metrics.csv"), train, seeds)
    return errors


def manifest_accuracy(out_dir: str, seed: int) -> float:
    with open(os.path.join(out_dir, "MANIFEST.json"), encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    return next(r["final_target_accuracy"] for r in runs if r["run"] == f"active-seed{seed}")


def check_record(record: dict, train: dict, target_y: np.ndarray) -> list:
    """Queries, weights and epoch counts of one run record."""
    errors = []
    n = len(target_y)
    rounds = train["query_rounds"]
    if len(record["stage1"]["epochs"]) != train["stage1_epochs"]:
        errors.append(f"stage 1 ran {len(record['stage1']['epochs'])} epochs")
    if len(record["rounds"]) != rounds:
        return errors + [f"{len(record['rounds'])} rounds, expected {rounds}"]
    remaining = np.arange(n)
    seen: set = set()
    cumulative: list = []
    for r, want in zip(record["rounds"], expected_query_counts(n, train["budget"], rounds)):
        name = f"round {r['round']}"
        if len(r["stage3"]["epochs"]) != train["stage3_epochs"]:
            errors.append(f"{name}: stage 3 ran {len(r['stage3']['epochs'])} epochs")
        q = r["query"]
        picked = np.asarray(q["indices"], dtype=np.int64)
        unc = np.asarray(q["uncertainty"])
        div = np.asarray(q["diversity"])
        comb = np.asarray(q["combined"])
        if not (unc.size == div.size == comb.size == remaining.size):
            errors.append(f"{name}: scores cover {comb.size} of {remaining.size} pool points")
            break
        if picked.size != want:
            errors.append(f"{name}: queried {picked.size}, expected {want}")
        if np.unique(picked).size != picked.size:
            errors.append(f"{name}: repeated query index")
        if picked.size and (picked.min() < 0 or picked.max() >= remaining.size):
            errors.append(f"{name}: query index outside the pool")
            break
        recomputed = unc - train["lambda_div"] * div
        if not np.allclose(comb, recomputed, rtol=0.0, atol=1e-12):
            errors.append(f"{name}: combined != uncertainty - lambda_div * diversity")
        top = np.argsort(-recomputed, kind="stable")[:picked.size]
        if not np.array_equal(np.sort(picked), np.sort(top)):
            errors.append(f"{name}: queried indices are not the top-{picked.size} by score")
        original = remaining[picked]
        if r["queried_original_indices"] != original.tolist():
            errors.append(f"{name}: original indices do not match the pool bookkeeping")
        if seen.intersection(original.tolist()):
            errors.append(f"{name}: re-queried an instance from an earlier round")
        seen.update(original.tolist())
        if r["queried_labels"] != target_y[original].tolist():
            errors.append(f"{name}: queried labels differ from the oracle's")
        cumulative += target_y[original].tolist()
        alpha = np.asarray(r["alpha"])
        counts = np.asarray(r["class_counts"])
        if (alpha < 0).any() or abs(alpha.sum() - 1.0) > 1e-9:
            errors.append(f"{name}: alpha {alpha.tolist()} is not a distribution")
        if counts.sum() != len(cumulative) or not np.array_equal(
                counts, np.bincount(cumulative, minlength=counts.size)):
            errors.append(f"{name}: class counts {counts.tolist()} do not match the queries")
        remaining = np.delete(remaining, picked)
    return errors


def check_metrics_csv(path: str, train: dict, seeds: list) -> list:
    """One finite row per epoch, in seed order, for every stage."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"metrics.csv unreadable: {exc}"]
    rows = list(csv.DictReader(lines[1:]))
    want = []
    for seed in seeds:
        want += [(str(seed), "0", str(e)) for e in range(train["stage1_epochs"])]
        for r in range(1, train["query_rounds"] + 1):
            want += [(str(seed), str(r), str(e)) for e in range(train["stage3_epochs"])]
    got = [(row["seed"], row["round"], row["epoch"]) for row in rows]
    errors = []
    if got != want:
        errors.append(f"metrics.csv has {len(got)} rows; expected one per epoch ({len(want)})")
    for row in rows:
        values = [float(v) for k, v in row.items() if k not in ("strategy", "seed")]
        if not all(math.isfinite(v) for v in values):
            errors.append(f"metrics.csv: non-finite value in {row}")
            break
    return errors


# ----------------------------------------------------------------------
# transport


def reference_w1(a: np.ndarray, b: np.ndarray) -> float:
    """Exact W1 between uniform measures via an assignment on points
    replicated to lcm(m, n) copies, so unequal sizes become a square problem."""
    m, n = len(a), len(b)
    size = m * n // math.gcd(m, n)
    cost = cdist(np.repeat(a, size // m, axis=0), np.repeat(b, size // n, axis=0))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def check_w1(a: np.ndarray, b: np.ndarray, value: float, coupling: np.ndarray,
             reference: float) -> list:
    """W1 value against the reference, and the coupling's feasibility."""
    errors = []
    m, n = len(a), len(b)
    if abs(value - reference) > W1_TOL:
        errors.append(f"W1 {value!r} differs from the reference {reference!r}")
    coupling = np.asarray(coupling)
    if coupling.shape != (m, n):
        return errors + [f"coupling shape {coupling.shape}, expected {(m, n)}"]
    if (coupling < 0).any():
        errors.append("coupling has negative mass")
    marginal = max(np.abs(coupling.sum(axis=1) - 1.0 / m).max(),
                   np.abs(coupling.sum(axis=0) - 1.0 / n).max())
    if marginal > W1_TOL:
        errors.append(f"coupling marginal error {marginal:.3g}")
    if abs(float((coupling * cdist(a, b)).sum()) - value) > W1_TOL:
        errors.append("coupling cost does not reproduce the W1 value")
    return errors
