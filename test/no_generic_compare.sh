#!/usr/bin/env bash
# Link-time lint over the simulator's libraries, two rules.
#
# Generic comparison: the libraries must not link OCaml's polymorphic
# comparison.  A `<`, `<=`, `=` or `compare` whose operands the type
# checker sees as `'a` compiles to a C call into `compare_val` instead
# of one machine compare, and `Stdlib.min`/`max` are polymorphic
# functions that make the same call; in a kernel that runs per
# allocation, per survivor or per event that call is the largest single
# host cost.  Annotate the operands (`(k : int)`), use
# `Int.min`/`Int.max`, or give a sort a typed comparator.
#
# Hash-table order: in the util, heap, gc, runtime and workload
# archives, `Gcperf_util.Int_table` is the one structure that
# reproduces `Hashtbl` iteration order (root sets, dirty cards, region
# remembered sets), so a `Stdlib.Hashtbl` there is a second copy of
# that order, or a generic hash on a hot path.  Use `Int_table`.
#
# Runs `nm -u` over each archive given as an argument and fails on any
# undefined reference to caml_lessthan, caml_lessequal,
# caml_greaterthan, caml_greaterequal, caml_compare, caml_equal,
# caml_notequal or Stdlib's min/max, and on any reference to
# camlStdlib__Hashtbl from gcperf_{util,heap,gc,runtime,workload}.a,
# naming the module that makes it, unless the module/symbol pair is on
# the allowlist below with its reason (a Hashtbl reference is reported
# as the symbol camlStdlib__Hashtbl).  An allowlist entry that matches
# no reference fails too.  Needs `nm` (binutils).  Run by the `runtest`
# alias.
set -u -o pipefail

# Module:symbol  reason
allowlist='
'

if [ "$#" -eq 0 ]; then
  echo "usage: no_generic_compare.sh ARCHIVE.a..." >&2
  exit 2
fi
command -v nm >/dev/null || { echo "no_generic_compare: nm not found (install binutils)" >&2; exit 2; }

# One line per reference: "<archive> <Module> <symbol>".  `nm -A`
# prefixes each line with `<archive>:<library>__<Module>.o:`.
refs=$(nm -A -u "$@" | awk '
  {
    split($1, f, ":")
    sym = $NF
    if (sym ~ /^camlStdlib__Hashtbl([.$]|$)/) {
      if (f[1] !~ /(^|\/)gcperf_(util|heap|gc|runtime|workload)\.a$/) next
      sym = "camlStdlib__Hashtbl"
    } else if (sym !~ /^caml_(lessthan|lessequal|greaterthan|greaterequal|compare|equal|notequal)$/ \
               && sym !~ /^camlStdlib[.$](min|max)_[0-9]+$/) next
    module = f[2]
    sub(/\.o$/, "", module)
    sub(/^.*__/, "", module)
    print f[1], module, sym
  }' | sort -u) || { echo "no_generic_compare: nm failed" >&2; exit 2; }

failures=0
while read -r archive module sym; do
  [ -n "$archive" ] || continue
  case "$allowlist" in
    *"
$module:$sym "*) continue ;;
  esac
  case "$sym" in
    camlStdlib__Hashtbl) why="Stdlib.Hashtbl; use Gcperf_util.Int_table" ;;
    *) why="generic comparison" ;;
  esac
  echo "$archive: $module references $sym ($why)" >&2
  failures=$((failures + 1))
done <<EOF
$refs
EOF

stale=0
while read -r entry _; do
  [ -n "$entry" ] || continue
  if ! printf '%s\n' "$refs" | awk '{ print $2 ":" $3 }' | grep -qxF "$entry"; then
    echo "no_generic_compare: stale allowlist entry $entry" >&2
    stale=$((stale + 1))
  fi
done <<EOF
$allowlist
EOF

if [ "$failures" -gt 0 ] || [ "$stale" -gt 0 ]; then
  echo "no_generic_compare: $failures forbidden reference(s), $stale stale allowlist entr(ies)" >&2
  exit 1
fi
echo "no_generic_compare: OK"
