"""crossing-count oracle: the brute-force enumeration cross-check."""

from .. import cli, oracle


def add_arguments(parser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True, help="forbidden crossing number")
    parser.add_argument("--min-arc", type=int, default=3)
    parser.add_argument("--by-isolated", action="store_true")
    parser.add_argument(
        "--budget", type=int, default=None, help="bound on the search states (0 refuses every search)"
    )
    parser.add_argument("--shuffle-seed", type=int, default=None, help="shuffle branch order")
    cli.add_common(parser)


def run(args) -> int:
    spec = oracle.EnumSpec(
        n=args.n,
        max_crossing=args.k,
        min_arc_length=args.min_arc,
        by_isolated=args.by_isolated,
        budget=oracle.DEFAULT_BUDGET if args.budget is None else args.budget,
    )
    rng = None
    if args.shuffle_seed is not None:
        import random

        rng = random.Random(args.shuffle_seed)
    result = oracle.enumerate_count(spec, branch_rng=rng)
    payload = {"n": args.n, "k": args.k, "min_arc_length": args.min_arc}
    if args.by_isolated:
        items = sorted(result.items())
        payload["histogram"] = {str(ell): str(cnt) for ell, cnt in items}
        payload["total"] = str(sum(result.values()))
        records = [{"ell": ell, "count": cnt} for ell, cnt in items]
        text = [f"{ell} {cnt}" for ell, cnt in items]
    else:
        payload["count"] = str(result)
        records, text = [payload], [str(result)]
    cli.emit(args.format, payload, records, text)
    return cli.EXIT_OK
