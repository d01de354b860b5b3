"""Seeded input generator for the benchmark.

Every input the program receives is a file written here from the workload
seed, or a shipped config copied byte for byte.  The SHA-256 of each file is
recorded, so two commits measured with the same seed can be shown to have
read identical bytes.  Only numpy's PCG64 streams and fixed-precision text
formatting are used, so the bytes depend on the seed alone.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

import numpy as np

# Prediction log: rows x classes x ranked predictions x backgrounds.
LOG_ROWS = 50_000
LOG_CLASSES = 200
LOG_RANKS = 5
LOG_BACKGROUNDS = 4
# Classes whose accuracy drops on the hard backgrounds, so `discover` flags
# them; the drop is far above the threshold the workload passes.
SPURIOUS_SHARE = 0.3
SPURIOUS_DROP = 0.35
# Share of rows that rank only three labels (trailing cells left empty).
SHORT_ROW_SHARE = 0.05
SHORT_ROW_RANKS = 3

SIM_SAMPLES = 2_000
SIM_CANDIDATES = 1_000

FIT_POINTS = 300


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _distinct_offsets(rng: np.random.Generator, rows: int, count: int,
                      high: int) -> np.ndarray:
    """(rows, count) offsets in [1, high), distinct within each row."""
    out = np.zeros((rows, count), dtype=np.int64)
    for j in range(count):
        col = rng.integers(1, high, size=rows)
        while True:
            clash = (out[:, :j] == col[:, None]).any(axis=1)
            if not clash.any():
                break
            col[clash] = rng.integers(1, high, size=int(clash.sum()))
        out[:, j] = col
    return out


def prediction_log(rng: np.random.Generator, rows: int = LOG_ROWS,
                   classes: int = LOG_CLASSES, ranks: int = LOG_RANKS,
                   backgrounds: int = LOG_BACKGROUNDS) -> str:
    """CSV text of a prediction log whose accuracy depends on background.

    Backgrounds below backgrounds // 2 form the easy group, the others the
    hard group.  Every class has a base top-1 accuracy; spurious classes lose
    SPURIOUS_DROP of it on hard backgrounds.  A miss puts the true label at
    rank 2..K or leaves it out.
    """
    true = rng.integers(0, classes, size=rows)
    background = rng.integers(0, backgrounds, size=rows)
    hard = background >= backgrounds // 2
    base = rng.uniform(0.55, 0.9, size=classes)
    spurious = rng.random(classes) < SPURIOUS_SHARE
    accuracy = base[true] - np.where(hard & spurious[true], SPURIOUS_DROP, 0.0)
    hit = rng.random(rows) < accuracy
    in_list = rng.random(rows) < 0.6
    rank = np.where(hit, 0, np.where(in_list, rng.integers(1, ranks, size=rows), ranks))
    ranked = np.where(rng.random(rows) < SHORT_ROW_SHARE, SHORT_ROW_RANKS, ranks)
    preds = (true[:, None] + _distinct_offsets(rng, rows, ranks, classes)) % classes
    slot = rank < ranked
    preds[slot, rank[slot]] = true[slot]

    names = [f"c{c:03d}" for c in range(classes)]
    header = ["sample_id", "true_label", "group", "background"]
    header += [f"pred_{i}" for i in range(1, ranks + 1)]
    lines = [",".join(header)]
    for i in range(rows):
        cells = [names[p] for p in preds[i, : ranked[i]]]
        cells += [""] * (ranks - ranked[i])
        lines.append(",".join([
            f"s{i:06d}", names[true[i]], "hard" if hard[i] else "easy",
            f"bg{background[i]}", *cells,
        ]))
    return "\n".join(lines) + "\n"


def similarity_table(rng: np.random.Generator, samples: int = SIM_SAMPLES,
                     candidates: int = SIM_CANDIDATES) -> str:
    """CSV text of per-sample similarity scores against candidate labels."""
    means = rng.normal(0.2, 0.05, size=candidates)
    scores = means + rng.normal(0.0, 0.05, size=(samples, candidates))
    header = "sample_id," + ",".join(f"cand{j:04d}" for j in range(candidates))
    lines = [header]
    for i in range(samples):
        lines.append(f"q{i:05d}," + ",".join(f"{v:.5f}" for v in scores[i]))
    return "\n".join(lines) + "\n"


def fit_points(rng: np.random.Generator, count: int = FIT_POINTS) -> str:
    """CSV text of (easy, hard) accuracy pairs on a noisy probit-linear trend."""
    normal = statistics.NormalDist()
    easy = rng.uniform(0.2, 0.95, size=count)
    noise = rng.normal(0.0, 0.1, size=count)
    lines = ["name,easy,hard"]
    for i in range(count):
        hard = normal.cdf(1.1 * normal.inv_cdf(float(easy[i])) - 0.5 + noise[i])
        hard = min(max(hard, 0.001), 0.999)
        lines.append(f"model{i:03d},{easy[i]:.6f},{hard:.6f}")
    return "\n".join(lines) + "\n"


def _derived_config(shipped: Path, out: Path, **overrides) -> Path:
    config = json.loads(shipped.read_text(encoding="utf-8"))
    config.update(overrides)
    return _write(out, json.dumps(config, indent=2, sort_keys=True) + "\n")


def generate(workload: str, seed: int, root: Path, out_dir: Path) -> dict[str, Path]:
    """Write the inputs of one workload into out_dir; return them by role.

    root is the checkout whose shipped configs/ the derived configs start
    from.  The same (workload, seed, shipped configs) give the same bytes.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = root / "configs"
    rng = np.random.default_rng(np.random.PCG64(seed))
    if workload == "gauss":
        return {
            "theorem_exact": _write(out_dir / "theorem_exact.json",
                                    (configs / "theorem_exact.json").read_text(encoding="utf-8")),
            "def1_lemma": _write(out_dir / "def1_lemma.json",
                                 (configs / "def1_lemma.json").read_text(encoding="utf-8")),
            "def1_large": _derived_config(configs / "def1_lemma.json",
                                          out_dir / "def1_large.json",
                                          n=100_000, d_I=128, d_T=128),
        }
    if workload == "discrete":
        return {
            "discrete_k5": _derived_config(configs / "discrete_k2.json",
                                           out_dir / "discrete_k5.json",
                                           num_classes=5, seed=seed),
        }
    if workload == "evallog":
        return {
            "predictions": _write(out_dir / "predictions.csv", prediction_log(rng)),
            "similarities": _write(out_dir / "similarities.csv", similarity_table(rng)),
            "points": _write(out_dir / "points.csv", fit_points(rng)),
        }
    raise ValueError(f"unknown workload {workload!r}")
