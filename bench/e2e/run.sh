#!/bin/sh
# Build the end-to-end benchmark from source, then run it.  Run from the
# repository root; every argument goes to e2e.exe (see README.md).
set -e
dune build --root . --cache=disabled --display=quiet ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
