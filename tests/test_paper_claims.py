"""The paper's qualitative claims on a small uniform grid, scores only.

Grid: d=500, n=5k, 20 clusters, 4 epochs at lr 0.001, m/d in {0.1, 0.2,
0.5}, k in {1, 4}, seeds {0, 1}; about 3 s. Measured S_i at seed 0 / 1:

    m/d    k=1             k=4             k=4 S_i/S_0
    0.1    0.0250/0.0249   0.0282/0.0260   0.130/0.117
    0.2    0.0246/0.0278   0.0435/0.0426   0.200/0.191
    0.5    0.0442/0.0469   0.0968/0.0921   0.444/0.413

k=1 is the hashing trick (Weinberger et al., ICML 2009), so k=4 beating it
is the Bloom embedding's own gain. The time ratio T_i/T_0 is left out: wall
times do not repeat from run to run, and one ratio read above 1 on this grid.
"""

import pytest

from bloomemb.experiment import ExperimentConfig, run_sweep

M_RATIOS = (0.1, 0.2, 0.5)
SEEDS = (0, 1)


@pytest.fixture(scope="module")
def cells():
    """(k, m/d, seed) -> sweep row."""
    rows = run_sweep(ExperimentConfig(d=500, n=5000, n_clusters=20, epochs=4),
                     M_RATIOS, [1, 4], SEEDS)
    return {(row["k"], row["m_ratio"], row["seed"]): row
            for row in rows if row["variant"] == "be"}


@pytest.mark.parametrize("seed", SEEDS)
def test_more_projections_score_higher_at_every_ratio(cells, seed):
    for ratio in M_RATIOS:
        assert cells[4, ratio, seed]["S_i"] > cells[1, ratio, seed]["S_i"], ratio


@pytest.mark.parametrize("seed", SEEDS)
def test_score_ratio_rises_with_m_over_d(cells, seed):
    ratios = [cells[4, ratio, seed]["score_ratio"] for ratio in M_RATIOS]
    assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios
