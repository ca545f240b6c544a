"""The benchmark's workloads: one simulated dataset and one `infer` command each.

Every dataset is coupled-logistic (r=4, epsilon=0.4, process and observation
noise 1e-3, burn-in 1000). The workload seed is the simulate seed; the infer
seed stays 0, so a workload seed fixes every input and every output byte.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7

TREE_M5 = (("V1", "V2"), ("V2", "V3"), ("V2", "V4"), ("V4", "V5"))
CHAIN_M3 = (("V1", "V2"), ("V2", "V3"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    m: int
    edges: tuple[tuple[str, str], ...]
    n: int
    infer_flags: tuple[str, ...]
    # spans that must see at least one call in a traced op of this workload
    expected_spans: tuple[str, ...]

    def sim_config(self, seed: int) -> dict:
        return {
            "names": [f"V{i + 1}" for i in range(self.m)],
            "edges": [list(e) for e in self.edges],
            "model": {"type": "coupled-logistic", "r": 4.0, "epsilon": 0.4},
            "process_noise_std": 1e-3,
            "obs_noise_std": 1e-3,
            "n": self.n,
            "burn_in": 1000,
            "seed": seed,
        }

    def infer_argv(self, data: str, out_dir: str) -> list[str]:
        return ["infer", "--data", data, "--out-dir", out_dir,
                *self.infer_flags, "--kappa", "2", "--tau", "1",
                "--alpha", "0.95", "--seed", "0"]


_COMMON_SPANS = ("cli.load_csv", "cli.delay_embed", "scores.Scorer.local",
                 "scores.conditional_entropy")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="exhaustive-tea-m5",
            why="DAG enumeration, the search loop and the memo cache; "
                "no surrogates, so kernel and thread-pool changes must leave it flat",
            m=5, edges=TREE_M5, n=10000,
            infer_flags=("--search", "exhaustive", "--score", "tea",
                         "--bins", "4"),
            expected_spans=_COMMON_SPANS + ("cli.discretize",
                                            "cli.exhaustive_search",
                                            "search.enumerate_dags.next"),
        ),
        Workload(
            name="greedy-tee-m5",
            why="199-surrogate populations on the discrete counting kernel "
                "and the thread pool take ~98% of it; enumeration is unused",
            m=5, edges=TREE_M5, n=10000,
            infer_flags=("--search", "greedy", "--score", "tee",
                         "--bins", "8", "--surrogates", "199"),
            expected_spans=_COMMON_SPANS + ("cli.discretize",
                                            "cli.greedy_hill_climb",
                                            "scores.surrogate_te_samples"),
        ),
        Workload(
            name="box-tee-m3",
            why="box-kernel cKDTree neighbour counts under nested threads; "
                "never discretises, so discrete-kernel changes must leave it flat",
            m=3, edges=CHAIN_M3, n=3000,
            infer_flags=("--search", "greedy", "--score", "tee",
                         "--estimator", "box-kernel", "--width", "0.08",
                         "--surrogates", "19"),
            expected_spans=_COMMON_SPANS + ("cli.greedy_hill_climb",
                                            "scores.surrogate_te_samples"),
        ),
    )
}
