"""The three workloads, at full size and at the tiny size the smoke tests use.

Each workload is a set of ``ExperimentConfig`` keyword arguments (plus, for
``sweep-par``, the sweep grid). The benchmark seed becomes the data seed, so
every seed gives other profiles of the same shape. Plain data only: the
orchestrator builds these without importing the package.
"""

from __future__ import annotations

from zipf_data import ZipfSpec

NAMES = ("baseline-synth", "cbe-zipf", "sweep-par")
SIZES = ("full", "tiny")
TEST_SIZE = 0.1  # share of profiles held out for evaluation

# baseline-synth: the paper's S_0/T_0 reference on the package's default
# synthetic data. Only data, trainer, rank and the MAP loop run.
_BASELINE = {
    "full": {"baseline": True, "d": 2000, "n": 20000, "n_clusters": 50, "epochs": 4},
    "tiny": {"baseline": True, "d": 200, "n": 600, "n_clusters": 10, "epochs": 1},
}

# cbe-zipf: file loading, both co-occurrence counts and a CBE rebuild that
# really applies pairs, then decoding and ranking over ~10k items.
ZIPF = {"full": ZipfSpec(),
        "tiny": ZipfSpec(d=400, n=800, n_clusters=10)}
_CBE = {
    "full": {"use_cbe": True, "m_in": 1000, "m_out": 1000, "k": 4, "epochs": 3},
    "tiny": {"use_cbe": True, "m_in": 100, "m_out": 100, "k": 4, "epochs": 1},
}

# sweep-par: the only workload that uses the sweep's process pool.
_SWEEP = {
    "full": {"d": 2000, "n": 10000, "n_clusters": 50, "epochs": 2},
    "tiny": {"d": 200, "n": 600, "n_clusters": 10, "epochs": 1},
}
GRID = {"m_ratios": [0.1, 0.3], "k_values": [4], "seeds": [0, 1]}


def grid_cells() -> int:
    """Cells of the sweep: one baseline per seed plus one per (k, m/d, seed)."""
    seeds = len(GRID["seeds"])
    return seeds * (1 + len(GRID["m_ratios"]) * len(GRID["k_values"]))


def config(name: str, size: str, seed: int, data_path: str | None = None) -> dict:
    """ExperimentConfig keyword arguments of workload `name`."""
    base = {"baseline-synth": _BASELINE, "cbe-zipf": _CBE, "sweep-par": _SWEEP}[name]
    cfg = dict(base[size], data_seed=seed, test_size=TEST_SIZE)
    if name == "cbe-zipf":
        cfg["data_path"] = data_path
    return cfg



def n_profiles(name: str, size: str) -> int:
    """Profiles in the dataset. Every Zipf profile survives loading: each
    has at least four distinct items."""
    if name == "cbe-zipf":
        return ZIPF[size].n
    return config(name, size, 0)["n"]
