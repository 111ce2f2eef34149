"""crossing-count verify: the generating-function identity checks."""

from .. import cli, powerseries


OPTIONS = (
    ("--which", dict(choices=("laplace", "functional", "phi", "bessel", "all"), default="all")),
    ("--k", dict(type=int, default=3)),
    ("--order", dict(type=int, default=None, help="truncation order override")),
    cli.FORMAT,
)


def _verification_reports(which: str, k: int, order: int | None):
    default_order = 30 if k == 3 else 20
    bessel_order = 16 if k == 3 else 12
    # the Bessel check runs first, so its bound on k refuses before any other
    # check grows a table; its report still comes last
    bessel = []
    if which in ("bessel", "all"):
        bessel.append(powerseries.verify_bessel_egf(k, order or bessel_order))
    reports = []
    if which in ("laplace", "all"):
        reports.append(powerseries.verify_laplace_identity(k, order or default_order))
    if which in ("functional", "all"):
        reports.append(powerseries.verify_functional_equation(k, order or default_order))
    if which in ("phi", "all"):
        for n in range(6):
            reports.append(powerseries.verify_phi_identity(n, order or 15))
    return reports + bessel


def run(args) -> int:
    if args.k < 3:
        raise ValueError(f"verify needs --k >= 3, got {args.k}")
    if args.order is not None and args.order < 1:
        raise ValueError(f"verify needs --order >= 1, got {args.order}")
    reports = _verification_reports(args.which, args.k, args.order)
    ok = all(r.ok for r in reports)
    checks = [
        {"name": r.name, "order": r.order, "ok": r.ok, "first_mismatch": r.first_mismatch}
        for r in reports
    ]
    cli.emit(args.format, {"ok": ok, "checks": checks}, checks, [r.describe() for r in reports])
    return cli.EXIT_OK if ok else cli.EXIT_VERIFY_FAILED
