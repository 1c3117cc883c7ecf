#!/usr/bin/env bash
# Builds the compiler and the benchmark from the checkout this script sits
# in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything (the dune build directory, scratch stores, daemon sockets,
# span files) stays inside the checkout.  See perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./perfbench/main.exe ./bin/mccd.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
