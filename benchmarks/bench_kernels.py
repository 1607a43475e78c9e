"""Time the two elimination kernels, the chunked scan and the transform.

Two cases over the full canonical sign-vector table of length n:

* random eliminators: --rows random total sign vectors (with "u" entries),
  the short lists that witness signs produce;
* full complement: every canonical vector as an eliminator, the largest call
  a base-point score makes.

Each case prints the path the dispatch in ``signelim.backend`` picks, then the
time of each path. The scan's cost is linear in the eliminator count, so on
the full complement it is timed on the first --rows eliminators and scaled
up. A transform whose grid exceeds the dispatch's cell budget is not run.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py --n 12 --rows 8 --repeat 5
"""

import argparse
import random
import statistics
import time

import numpy as np

from signelim import backend
from signelim.backend import UNDETERMINED, sign_vector_table


def random_eliminators(rng, n, rows):
    out = []
    while len(out) < rows:
        t = tuple(
            rng.choice((-1, 0, 1, UNDETERMINED)) for _ in range(n)
        )
        if any(e in (-1, 1) for e in t):
            out.append(t)
    return np.asarray(out, dtype=np.int8)


def time_callable(fn, repeat):
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def report(label, samples, scale=1.0, note=""):
    print(
        f"  {label:<10} best {min(samples) * scale * 1e3:12.3f} ms  "
        f"median {statistics.median(samples) * scale * 1e3:12.3f} ms{note}"
    )


def run_case(name, table, elim, scan_rows, repeat):
    n = table.shape[1]
    has_u = bool((elim == UNDETERMINED).any())
    k = 4 if has_u else 3
    picks = backend._use_transform(table.shape[0], n, elim.shape[0], has_u)
    print(
        f"{name}: {elim.shape[0]} eliminators, grid {k}**{n}; "
        f"dispatch picks {'transform' if picks else 'scan'}"
    )
    timed = elim[:scan_rows]
    samples = time_callable(lambda: backend._scan_masks(table, timed, False), repeat)
    scale = elim.shape[0] / timed.shape[0]
    note = "" if scale == 1 else f"  (scaled from the first {timed.shape[0]})"
    report("scan", samples, scale, note)
    if k**n > backend._GRID_BUDGET:
        print(f"  transform  not run: {k}**{n} cells exceed the budget of {backend._GRID_BUDGET}")
        return
    samples = time_callable(lambda: backend._elimination_counts(table, elim, has_u), repeat)
    report("transform", samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=12, help="vector length")
    parser.add_argument("--rows", type=int, default=8, help="random eliminator count")
    parser.add_argument("--repeat", type=int, default=5, help="timed repetitions")
    parser.add_argument("--seed", type=int, default=0, help="eliminator RNG seed")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    table = sign_vector_table(args.n)
    print(
        f"table: {table.shape[0]} canonical vectors of length {args.n}, "
        f"repeat={args.repeat}"
    )
    elim = random_eliminators(rng, args.n, args.rows)
    run_case("random eliminators", table, elim, args.rows, args.repeat)
    run_case("full complement", table, table, args.rows, args.repeat)


if __name__ == "__main__":
    main()
