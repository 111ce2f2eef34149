"""crossing-count table: the exact and asymptotic subexponential factors for k = 3."""

from .. import asymptotics, cli


OPTIONS = (
    ("--n-max", dict(type=int, required=True)),
    ("--step", dict(type=int, default=10)),
    ("--base", dict(type=float, default=None, help="default: the paper's 1/rho_3")),
    (
        "--computed-base",
        dict(action="store_true", help="use the computed growth rate 1/rho_3 instead of --base"),
    ),
    ("--digits", dict(type=int, default=4, help="significant digits in text output")),
    cli.FORMAT,
    cli.CACHE,
)


def run(args) -> int:
    if args.step < 1 or args.n_max < args.step:
        raise ValueError(f"need n_max >= step >= 1, got n_max={args.n_max}, step={args.step}")
    if args.digits < 1:
        raise ValueError(f"table needs --digits >= 1, got {args.digits}")
    if args.digits > 17:  # a double carries at most 17 significant digits
        raise ValueError(f"table needs --digits <= 17, got {args.digits}")
    base = cli.base(args)
    records, text = [], [f"base = {base:.10g}", f"{'n':>6}  {'exact':>14}  {'asymptotic':>14}"]
    ns = range(args.step, args.n_max + 1, args.step)
    # one pass for every row: the largest is refused before any is computed or cached
    counts = cli.structure_counts(3, ns, None, cli.open_cache(args))
    for n in ns:
        exact = asymptotics.scaled_count(counts[n], base, n)
        asym = asymptotics.subexp_factor(n) if n >= 5 else None
        records.append(
            {
                "n": n,
                "exact_factor": cli.sci(exact, 6),
                "asymptotic_factor": None if asym is None else cli.sci(asym, 6),
            }
        )
        right = "-" if asym is None else cli.sci(asym, args.digits)
        text.append(f"{n:>6}  {cli.sci(exact, args.digits):>14}  {right:>14}")
    cli.emit(args.format, {"base": f"{base:.10g}", "rows": records}, records, text)
    return cli.EXIT_OK
