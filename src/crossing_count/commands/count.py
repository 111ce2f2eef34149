"""crossing-count count: the exact structure count S_{k,3}(n)."""

from .. import cli


def add_arguments(parser) -> None:
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--ell", type=int, default=None, help="fix the number of isolated vertices")
    cli.add_common(parser, cache=True)


def run(args) -> int:
    value = cli.structure_counts(args.k, [args.n], args.ell, cli.open_cache(args))[args.n]
    payload = {"k": args.k, "n": args.n, "ell": args.ell, "count": str(value)}
    cli.emit(args.format, payload, [payload], [str(value)])
    return cli.EXIT_OK
