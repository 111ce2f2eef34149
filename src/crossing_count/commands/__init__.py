"""One module per crossing-count subcommand, each with OPTIONS, its
options as a tuple of (name, add_argument keywords) in help order, and
run(args) -> int.

cli.main imports only the module that argv[0] names, so a command
neither compiles another's handler nor builds another's options.
read(OPTIONS, argv) parses the plain argv forms that table admits, with
no argparse at all; for any other argv (--help, usage errors, and every
form only argparse accepts, such as --k=3, abbreviations or a value that
starts with '-') and for a table with a positional, cli.main adds the
same table to an argparse parser, so help text, error messages and exit
codes are argparse's own.
A handler calls each layer through its module attribute
(structures.s_k3_at(...)), so a wrapper installed on the layer sees the call.
"""

from types import SimpleNamespace

# the add_argument keywords that read() understands; any other keyword, or
# an action other than store_true, leaves the whole argv to argparse
READABLE = {"action", "choices", "default", "help", "required", "type"}


def read(options, argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for argv under the options
    table, or None when the table holds an entry other than a --name with
    READABLE keywords (a positional, nargs, ...), or when argv is not a
    sequence of exact declared --name tokens, each a store_true flag or
    followed by one value that does not start with '-', converts by its
    type and is among its choices, with every required option given.  As
    in argparse, the last occurrence of an option wins."""
    declared = dict(options)
    for name, kw in options:
        if not (
            name.startswith("--")
            and kw.keys() <= READABLE
            and kw.get("action", "store_true") == "store_true"
        ):
            return None
    values = {
        _dest(name): kw.get("default", False if "action" in kw else None)
        for name, kw in options
    }
    missing = {name for name, kw in options if kw.get("required")}
    tokens = iter(argv)
    for token in tokens:
        kw = declared.get(token)
        if kw is None:
            return None
        missing.discard(token)
        if "action" in kw:
            values[_dest(token)] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        values[_dest(token)] = value
    return None if missing else SimpleNamespace(**values)


def _dest(name: str) -> str:
    """argparse's attribute name for the option --name."""
    return name[2:].replace("-", "_")
