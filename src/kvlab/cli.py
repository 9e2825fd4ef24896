"""Command-line entry point.

Subcommands: simulate | sweep | needle | reuse-bench | memory.
Exit codes: 0 success, 1 internal error, 2 user/config error.  --out is made
at the first write, so a config its command refuses leaves no directory.  An
--out that cannot be a directory, or an output file the OS refuses to write,
exits 2 after the run, with a message naming it; an output file with a
directory in its place exits 2 with that message before the run.  A closed
stdout exits 0 quietly.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .cache import memory_bytes
from .experiments import (
    cmd_needle,
    cmd_reuse_bench,
    cmd_simulate,
    cmd_sweep,
    load_config,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kvlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # bound on each call, so that a wrapper installed on a cmd_* name (perfbench's tracer) runs
    for name, run in zip(("simulate", "sweep", "needle", "reuse-bench"),
                         (cmd_simulate, cmd_sweep, cmd_needle, cmd_reuse_bench)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.set_defaults(run=run)

    mem = sub.add_parser("memory", help="decode-stage KV cache byte count")
    mem.add_argument("--batch", type=int, required=True)
    mem.add_argument("--seq", type=int, required=True)
    mem.add_argument("--layers", type=int, required=True)
    mem.add_argument("--heads", type=int, required=True)
    mem.add_argument("--head-dim", type=int, required=True)
    mem.add_argument("--precision-bytes", type=int, default=2)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "memory":
            dests = {d: v for d, v in vars(args).items() if d != "command"}  # memory_bytes' names
            flags = ["--" + d.replace("_", "-") for d in dests]  # in the parser's order
            for flag, value in zip(flags, dests.values()):
                if value < 1:
                    raise ValueError(f"{flag} must be >= 1, got {value}")
            total = memory_bytes(**dests)
            # integer quotient, so no total is too large, rounded half-even as
            # float formatting rounds
            cents, rest = divmod(100 * total, 2**30)
            cents += 2 * rest > 2**30 or (2 * rest == 2**30 and cents % 2)
            try:
                lines = [f"{total} bytes ({cents // 100}.{cents % 100:02d} GiB)"]
            except ValueError as e:  # more digits than int-to-str conversion allows
                product = " * ".join(["2", *flags])
                limit = sys.get_int_max_str_digits()
                raise ValueError(f"the byte count {product} has over {limit} digits") from e
        else:
            lines = args.run(load_config(args.config), Path(args.out))  # the paths written
        print(*lines, sep="\n", flush=True)
        return 0
    except BrokenPipeError:  # a closed stdout; fd 1 on devnull, so no exit-time flush fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as e:  # a ConfigError too
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # `[x] * n` raises one with no message
        msg = "the config's sizes need more memory than can be allocated" + (str(e) and f": {e}")
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
