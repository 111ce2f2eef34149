"""crossing-count growth: the radius r_k, rho_k, the growth rate and the singularities."""

from .. import asymptotics, cli


OPTIONS = (
    ("--k", dict(type=int, required=True)),
    (
        "--n-max",
        dict(type=int, default=None, help="ignored: r_k = 1/(2(k-1)) is exact for every k"),
    ),
    cli.FORMAT,
)


def run(args) -> int:
    report = asymptotics.compute_rho(args.k)
    sing = asymptotics.singularities_for_radius(report)
    payload = {
        "k": args.k,
        "r_k": report.radius,
        "r_k_exact": True,
        "r_k_error": 0.0,
        "rho": report.rho,
        "growth_rate": report.growth_rate,
        "residual": report.residual,
        "singularities": [{"re": z.real, "im": z.imag} for z in sing],
    }
    records = [
        {"quantity": "r_k", "value_re": f"{report.radius:.12g}", "value_im": ""},
        {"quantity": "rho", "value_re": f"{report.rho:.12g}", "value_im": ""},
        {"quantity": "growth_rate", "value_re": f"{report.growth_rate:.12g}", "value_im": ""},
        {"quantity": "residual", "value_re": f"{report.residual:.3e}", "value_im": ""},
    ] + [
        {"quantity": f"singularity_{i}", "value_re": f"{z.real:.12g}", "value_im": f"{z.imag:.12g}"}
        for i, z in enumerate(sing, 1)
    ]
    text = [
        f"k = {args.k}",
        f"r_k = {report.radius:.10g} (exact)",
        f"rho_k = {report.rho:.10f}",
        f"growth rate 1/rho_k = {report.growth_rate:.10f}",
        f"residual |theta(rho)-r_k| = {report.residual:.3e}",
        "induced singularities:",
    ] + [
        f"  {z.real:+.6f} {z.imag:+.6f}i"
        for z in sorted(sing, key=lambda w: (round(w.real, 9), w.imag))
    ]
    cli.emit(args.format, payload, records, text)
    return cli.EXIT_OK
