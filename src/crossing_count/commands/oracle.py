"""crossing-count oracle: the brute-force enumeration cross-check."""

from .. import cli, oracle


OPTIONS = (
    ("--n", dict(type=int, required=True)),
    ("--k", dict(type=int, required=True, help="forbidden crossing number")),
    ("--min-arc", dict(type=int, default=3)),
    ("--by-isolated", dict(action="store_true")),
    (
        "--budget",
        dict(type=int, default=None, help="bound on the search states (0 refuses every search)"),
    ),
    ("--shuffle-seed", dict(type=int, default=None, help="shuffle branch order")),
    cli.FORMAT,
)


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
