#!/usr/bin/env bash
# Module-level mutable state lint: OCaml 5 domains share one heap, so a
# module-level table in lib/ is shared by every Pool worker.  Checks the
# value bindings of lib/**/*.ml that sit at module level: a column-0
# `let`, and a `let` indented two spaces inside a column-0
# `module M = struct ... end`.  Fails when such a binding's body starts
# with a mutable constructor:
#   ref, Atomic.make, Array.make, Array.init, Bytes.make, any
#   `<Module>.create` (Hashtbl, Queue, Buffer, Mutex, ...), or a
#   non-empty array literal `[| ... |]`,
# unless the binding is on the allowlist below with its reason.  Other
# shapes (a mutable record literal, a table built by a helper call,
# `and` bindings, deeper nesting) are not detected.  Run by the
# `runtest` alias; $1 is the lib/ directory.
set -u

lib="${1%/}"

# file:name  reason   (a nested binding is named Module.name)
allowlist='
telemetry/telemetry.ml:default  an Atomic: safe to read and set from any domain
core/experiment.ml:memo  every access holds memo_lock (Mutex.protect)
core/experiment.ml:memo_lock  the mutex that guards memo
'

find "$lib" -name '*.ml' | sort | xargs awk -v lib="$lib/" -v allow="$allowlist" '
  # A value binding: the name, an optional type annotation, then `=` and
  # one of the mutable constructors.  A function (a parameter before
  # `=`) allocates per call and does not match.
  function check(  head) {
    if (text == "") return
    head = "^let (rec )?" bare "[ \t]*(:[^=]*)?=[ \t]*"
    if ((text ~ (head "(ref|Atomic\\.make|Array\\.(make|init)|Bytes\\.make" \
                 "|([A-Z][A-Za-z0-9_\047]*\\.)+create)([^A-Za-z0-9_.\047]|$)") \
         || text ~ (head "\\[\\|([^|]|$)")) \
        && index(allow, "\n" file ":" name " ") == 0) {
      printf "lib/%s:%d: module-level mutable state: %s\n", file, start, \
        name > "/dev/stderr"
      failures++
    }
    text = ""
  }
  function begin_binding(prefix) {
    check()
    start = FNR
    text = $0
    sub("^[ \t]+", "", text)
    bare = text
    sub("^let (rec )?", "", bare)
    sub("[^A-Za-z0-9_\047].*$", "", bare)
    name = prefix bare
  }
  FNR == 1 { check(); file = substr(FILENAME, length(lib) + 1); inner = "" }
  # Nested structures: `module M = struct` opens at column 0 and the
  # matching `end` closes at column 0.
  /^module [A-Z][A-Za-z0-9_\047]* *= *struct/ {
    check()
    inner = $2 "."
    next
  }
  /^end/ { check(); inner = ""; next }
  # A binding may spread its type annotation over several lines: join
  # lines from its `let` until its `=` has body text after it.
  /^let / { begin_binding("") }
  inner != "" && /^  let / { begin_binding(inner) }
  text != "" && FNR > start { line = $0; sub("^[ \t]+", "", line); text = text " " line }
  text ~ /=[ \t]*[^ \t=]/ { check() }
  END {
    check()
    if (failures > 0) {
      printf "no_global_state: %d module-level mutable binding(s) in lib/;" \
        " make them per-instance or allowlist them with a reason\n", \
        failures > "/dev/stderr"
      exit 1
    }
    print "no_global_state: OK"
  }
'
