"""One module per crossing-count subcommand, each with run(args) -> int.

cli.main parses the command line and then imports only the module that
the subcommand names, so a command never compiles another's handler.
A handler calls each layer through its module attribute
(structures.s_k3(...)), so a wrapper installed on the layer sees the call.
"""
