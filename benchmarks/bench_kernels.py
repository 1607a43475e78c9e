"""Time the elimination scan over the full canonical sign-vector table.

The scan computes, for every canonical vector of length n, whether at least
one of the random eliminator rows eliminates it, so the timing isolates kernel
speed from table construction and CLI work.

Run from the repository root:

    python benchmarks/bench_kernels.py --n 12 --rows 8 --repeat 5
"""

import argparse
import random
import statistics
import time

import numpy as np

from signelim.backend import (
    UNDETERMINED,
    eliminated_any_mask,
    sign_vector_table,
)


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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=12, help="vector length")
    parser.add_argument("--rows", type=int, default=8, help="eliminator count")
    parser.add_argument("--repeat", type=int, default=5, help="timed repetitions")
    parser.add_argument("--seed", type=int, default=0, help="eliminator RNG seed")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    table = sign_vector_table(args.n)
    elim = random_eliminators(rng, args.n, args.rows)
    print(
        f"table: {table.shape[0]} canonical vectors of length {args.n}, "
        f"{args.rows} eliminators, repeat={args.repeat}"
    )

    times = time_callable(lambda: eliminated_any_mask(table, elim), args.repeat)
    print(
        f"elimination scan: best {min(times) * 1e3:9.3f} ms  "
        f"median {statistics.median(times) * 1e3:9.3f} ms"
    )


if __name__ == "__main__":
    main()
