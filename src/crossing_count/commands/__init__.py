"""One module per crossing-count subcommand, each with
add_arguments(parser), which declares the subcommand's options, and
run(args) -> int.

cli.main imports only the module that argv[0] names and passes its
add_arguments an Options recorder, never an argparse parser, so a
command neither compiles another's handler nor builds another's options.
Options.read parses the plain argv forms those declarations admit, with
no argparse at all; for any other argv (--help, usage errors, and every
form only argparse accepts, such as --k=3, abbreviations or a value that
starts with '-') cli.main replays the recorded calls on an argparse
parser, so help text, error messages and exit codes are argparse's own.
A handler calls each layer through its module attribute
(structures.s_k3_at(...)), so a wrapper installed on the layer sees the call.
"""

from types import SimpleNamespace

# the add_argument keywords that read() understands; any other keyword, or
# an action other than store_true, leaves the whole argv to argparse
READABLE = {"action", "choices", "default", "help", "required", "type"}


class Options:
    """The add_argument calls of one command, in order, and a reader for
    the argv forms they declare."""

    def __init__(self):
        self.calls: list[tuple[tuple[str, ...], dict]] = []
        self._options: dict[str, dict] = {}  # "--name" -> its keywords
        self._readable = True

    def add_argument(self, *names: str, **kw) -> None:
        self.calls.append((names, kw))
        if (
            len(names) == 1
            and names[0].startswith("--")
            and kw.keys() <= READABLE
            and kw.get("action", "store_true") == "store_true"
        ):
            self._options[names[0]] = kw
        else:  # a positional, a short name, nargs, ...
            self._readable = False

    def read(self, argv: list[str]) -> SimpleNamespace | None:
        """The namespace argparse would return for argv, or None when argv
        is not a sequence of exact declared --name tokens, each a store_true
        flag or followed by one value that does not start with '-', converts
        by its type and is among its choices, with every required option
        given.  As in argparse, the last occurrence of an option wins."""
        if not self._readable:
            return None
        values = {
            _dest(name): kw.get("default", False if "action" in kw else None)
            for name, kw in self._options.items()
        }
        missing = {name for name, kw in self._options.items() if kw.get("required")}
        tokens = iter(argv)
        for token in tokens:
            kw = self._options.get(token)
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
