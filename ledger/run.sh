#!/bin/sh
# Builds the daemon and the ledger from source, then runs the ledger with
# the given arguments from the repository root.  Build output goes to
# stderr, so the ledger's last line of stdout stays its JSON result.
set -eu
cd "$(dirname "$0")/.."
dune build --root . bin/tightspace.exe ledger/ledger.exe 1>&2
exec ./_build/default/ledger/ledger.exe "$@"
