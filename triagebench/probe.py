"""Set-up probe: imports the program, loads the shipped config (which parses
the catalogs), builds the router and, with --live, starts the live stub;
then prints `ready`. The benchmark times each probe from process start to
that line.

Usage: python3 triagebench/probe.py --root <checkout> [--live]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--live", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.root) / "src"))
    from droidtriage import config  # the package imports every module it ships

    cfg = config.load_config()
    proc = None
    if args.live:
        import stub

        proc, url = stub.start(Path(args.root))
        for mc in cfg.router.models.values():
            mc.base_url = url
        cfg.build_router("http")
    else:
        cfg.build_router("scripted")
    print("ready", flush=True)
    if proc is not None:
        stub.stop(proc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
