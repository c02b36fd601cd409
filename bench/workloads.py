"""The benchmark's workloads, each run through binsense's public API.

One *unit* of a workload is one complete call of the kind a user waits
for (a paired sweep, an m95 bisection, an oracle sweep) at a fixed trial
count; the benchmark repeats units for the run length.  Trial counts are
scaled from the acceptance criteria so that a unit takes a few seconds
on a 2-core host; the grids, brackets, channels and decoders are the
criteria's own.  The worker count is the caller's (run.py's ``WORKERS``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from binsense import Linear, OneBit, TrialConfig, estimate_m95, model_tag, sweep

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: object
    n: int
    k: int
    decoders: tuple
    trials: int  # per grid point, or per bisection probe
    grid: tuple = ()  # ascending m grid of a sweep
    bracket: tuple = ()  # (m_lo, m_hi) of an m95 bisection
    floor: tuple = ()  # (m, rate) the success rate must reach

    def master_seed(self, seed: int, index: int) -> int:
        """The master seed of input set ``index`` in a run with workload seed ``seed``."""
        digest = hashlib.blake2b(f"{self.name}/{seed}/{index}".encode(), digest_size=8)
        return int.from_bytes(digest.digest(), "little")

    def config(self, decoder: str, master_seed: int) -> TrialConfig:
        m = self.bracket[0] if self.bracket else self.grid[0]
        return TrialConfig(self.model, self.n, self.k, m, decoder=decoder, master_seed=master_seed)

    def run(self, master_seed: int, workers: int) -> str:
        """One unit; returns its output exactly as bytes would be written."""
        if self.bracket:
            m_lo, m_hi = self.bracket
            config = self.config(self.decoders[0], master_seed)
            result = estimate_m95(config, self.trials, m_lo, m_hi, workers=workers)
            doc = {"seed": master_seed, "m_lo": m_lo, "m_hi": m_hi, **asdict(result)}
            return json.dumps(doc, sort_keys=True) + "\n"
        return "".join(
            sweep(self.config(d, master_seed), self.grid, self.trials, workers=workers).to_csv()
            for d in self.decoders
        )

    def trials_run(self, output: str) -> int:
        """Trials the harness ran to produce ``output``."""
        if self.bracket:
            return len(json.loads(output)["probes"]) * self.trials
        return len(self.decoders) * len(self.grid) * self.trials

    def check(self, output: str, master_seed: int) -> list:
        if self.bracket:
            m_lo, m_hi = self.bracket
            return checks.check_m95_json(
                output, m_lo=m_lo, m_hi=m_hi, trials=self.trials, seed=master_seed
            )
        lines = output.splitlines(keepends=True)
        size = len(self.grid) + 1
        tables = ["".join(lines[i:i + size]) for i in range(0, len(lines), size)]
        if len(tables) != len(self.decoders):
            return [f"expected {len(self.decoders)} sweep tables, got {len(tables)}"]
        problems = []
        for decoder, table in zip(self.decoders, tables):
            problems += checks.check_sweep_csv(
                table, model=model_tag(self.model), n=self.n, k=self.k,
                sigma2=self.model.sigma2, decoder=decoder, grid=self.grid,
                trials=self.trials, seed=master_seed,
            )
        if problems:
            return problems
        if len(tables) == 2:
            problems += checks.check_paired_gap(tables)
        if self.floor:
            problems += checks.check_rate_floor(tables[0], *self.floor)
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-paired",
            why=(
                "criterion 5: linear topk and quantize arms on one seed, 2800x512 matrices "
                "beyond L2, ascending grid, 2 workers; sampler, matmul, redundant draws, BLAS threads"
            ),
            model=Linear(1.0),
            n=512,
            k=8,
            decoders=("topk", "quantize"),
            trials=10,
            grid=(700, 1000, 1400, 2000, 2800),
        ),
        Workload(
            name="m95-onebit",
            why=(
                "criterion 4 at sigma2=4: one-bit bisection on [50, 1000], 2 workers; "
                "short probes in a data-dependent m order, one process pool per probe"
            ),
            model=OneBit(4.0),
            n=512,
            k=8,
            decoders=("topk",),
            trials=30,
            bracket=(50, 1000),
        ),
        Workload(
            name="mle-oracle",
            why=(
                "exhaustive MLE at n=20, k=3, 1140 candidates a trial: decoding is 95% of a "
                "trial and the sampler 2%, so a sampler change must not move it"
            ),
            model=Linear(0.25),
            n=20,
            k=3,
            decoders=("mle",),
            trials=80,
            grid=(10, 20, 40),
            floor=(40, 0.95),
        ),
    )
}
