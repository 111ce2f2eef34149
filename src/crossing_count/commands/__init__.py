"""One module per crossing-count subcommand, each with
add_arguments(parser), which declares the subcommand's options on an
argparse parser, and run(args) -> int.

cli.main imports only the module that argv[0] names and builds only its
parser, so a command neither compiles another's handler nor builds
another's options.
A handler calls each layer through its module attribute
(structures.s_k3(...)), so a wrapper installed on the layer sees the call.
"""
