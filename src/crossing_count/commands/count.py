"""crossing-count count: the exact structure count S_{k,3}(n)."""

from .. import cli


OPTIONS = (
    ("--k", dict(type=int, required=True)),
    ("--n", dict(type=int, required=True)),
    ("--ell", dict(type=int, default=None, help="fix the number of isolated vertices")),
    cli.FORMAT,
    cli.CACHE,
)


def run(args) -> int:
    value = cli.structure_counts(args.k, [args.n], args.ell, cli.open_cache(args))[args.n]
    payload = {"k": args.k, "n": args.n, "ell": args.ell, "count": str(value)}
    cli.emit(args.format, payload, [payload], [str(value)])
    return cli.EXIT_OK
