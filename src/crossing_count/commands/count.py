"""crossing-count count: the exact structure count S_{k,3}(n)."""

from __future__ import annotations

from .. import cli


def run(args) -> int:
    value = cli.structure_count(args.k, args.n, args.ell, cli.open_cache(args))
    payload = {"k": args.k, "n": args.n, "ell": args.ell, "count": str(value)}
    cli.emit(args.format, payload, [payload], [str(value)])
    return cli.EXIT_OK
