"""crossing-count asym: the asymptotic against the exact subexponential factor at n."""

import math

from .. import asymptotics, cli


OPTIONS = (
    ("--n", dict(type=int, required=True)),
    ("--base", dict(type=float, default=None, help="default: the paper's 1/rho_3")),
    ("--computed-base", dict(action="store_true")),
    (
        "--n-max",
        dict(type=int, default=None, help="also estimate the prefactor limit up to n-max"),
    ),
    cli.FORMAT,
    cli.CACHE,
)


def run(args) -> int:
    base = cli.base(args)
    # n_max < 50 first, then one pass for n and the K' nodes, the largest row refused first
    nodes = [] if args.n_max is None else asymptotics.kprime_nodes(args.n_max)
    counts = cli.structure_counts(3, [args.n, *nodes], None, cli.open_cache(args))
    exact = asymptotics.scaled_count(counts[args.n], base, args.n)
    asym = asymptotics.subexp_factor(args.n) if args.n >= 5 else None
    ratio = None if asym is None else exact / asym
    if ratio is not None and not 5e-7 <= ratio < math.inf:  # .6f shows no digit below 5e-7
        raise ValueError(f"exact / asymptotic factor {ratio:.3g} at n = {args.n} is not printable")
    payload = {
        "n": args.n,
        "base": f"{base:.10g}",
        "count": str(counts[args.n]),
        "exact_factor": cli.sci(exact, 6),
        "asymptotic_factor": None if asym is None else cli.sci(asym, 6),
        # log-scaled, since asym * base^n overflows floats long before n is large
        "asymptotic_count_log10": (
            None if asym is None else f"{math.log10(asym) + args.n * math.log10(base):.6f}"
        ),
        "ratio": None if ratio is None else f"{ratio:.6f}",
    }
    if args.n_max is not None:
        report = asymptotics.estimate_kprime(args.n_max, counts)
        payload["kprime_raw"] = f"{report.raw_last:.6f}"
        payload["kprime_estimate"] = f"{report.estimate:.6f}"
        payload["kprime_limit"] = f"{asymptotics.singular_constants_check().kprime_limit:.6f}"
        payload["kprime_n_max"] = args.n_max
    text = [f"{key} = {'-' if value is None else value}" for key, value in payload.items()]
    cli.emit(args.format, payload, [payload], text)
    return cli.EXIT_OK
