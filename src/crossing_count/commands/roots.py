"""crossing-count roots: the four roots of a quartic, with their residuals."""

from .. import asymptotics, cli


OPTIONS = (
    ("coeffs", dict(type=float, nargs=5, metavar="COEFF", help="A, B, C, D and E")),
    cli.FORMAT,
)


def run(args) -> int:
    problem = asymptotics.QuarticProblem(*args.coeffs)
    roots = sorted(
        asymptotics.solve_quartic(problem), key=lambda z: (round(z.real, 12), z.imag)
    )
    payload = {
        "coefficients": list(args.coeffs),
        "roots": [{"re": z.real, "im": z.imag, "residual": problem.residual(z)} for z in roots],
    }
    records = [
        {"re": f"{z.real:.15g}", "im": f"{z.imag:.15g}", "residual": f"{problem.residual(z):.3e}"}
        for z in roots
    ]
    text = [
        f"{z.real:+.12f} {z.imag:+.12f}i   residual {problem.residual(z):.3e}" for z in roots
    ]
    cli.emit(args.format, payload, records, text)
    return cli.EXIT_OK
