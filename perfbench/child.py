"""One benchmark repetition in a fresh interpreter.

Calls ``qtflow.cli.main`` once, timed from config parse to the written
manifest, and writes what it measured as JSON to ``--result``.  With
``--trace 1`` every layer boundary records spans; otherwise only the case
set-up clock is hooked in.

    python3 perfbench/child.py --root . --subcommand run --config c.ini \
        --out out --result r.json --trace 0
"""

import os

# BLAS threads must be pinned before numpy is first imported.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import spans  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout holding src/qtflow")
    parser.add_argument("--subcommand", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    import numpy
    import scipy
    import qtflow
    import qtflow.cli

    cli_argv = [args.subcommand, "--config", args.config, "--out", args.out,
                "--threads", "1"]
    if args.trace:
        tracer = spans.Tracer()
        hooks = spans.layer_hooks(tracer, qtflow)
        entry = tracer.wrap(spans.ROOT, qtflow.cli.main)
    else:
        clock = spans.CaseClock()
        hooks = clock.hooks(qtflow)
        entry = qtflow.cli.main

    with spans.installed(hooks):
        t0 = time.perf_counter()
        rc = entry(cli_argv)
        wall_s = time.perf_counter() - t0

    result = {
        "rc": rc,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if args.trace:
        metrics, counts, self_sum = spans.layer_metrics(tracer)
        result.update(layers=metrics, span_counts=counts, self_sum_s=self_sum)
        numpy.savez(os.path.join(os.path.dirname(args.result), "spans.npz"),
                    names=numpy.array(tracer.names), name_ids=tracer.name_ids,
                    parents=tracer.parents, starts=tracer.starts, ends=tracer.ends)
    else:
        result.update(setup_s=clock.setup_s, dof_steps=clock.dof_steps)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
