#!/usr/bin/env bash
# Dead-export lint: every `val` at column 0 of lib/**/*.mli must be used
# outside its own module, by some .ml file under lib/, bin/, test/,
# bench/, tools/ or examples/.  A use is the qualified name `M.v`, where
# `M` is the module itself, a library path ending in it
# (`Gcperf_util.Vec.v`) or a file-local alias (`module Os =
# Gcperf_heap.Obj_store`, then `Os.v`).  A file that opens `M` (`open`,
# `let open`, `M.( ... )`) uses every bare name in it.  Comments and
# string literals do not count.  Two modules with the same name (there
# are two `Profile`s) share their uses, so the lint errs towards passing.
#
# bench/e2e is not scanned: it is a frozen benchmark, so a value that
# only it calls stays exported through an allowlist entry below, and
# leaves the list when the benchmark stops calling it.
#
# Fails, naming each value, unless the value is on the allowlist with
# its reason; also fails on an allowlist entry that names no exported
# value.  Run by the `runtest` alias; $1 is the repository root.
set -u

root="${1:-.}"
root="${root%/}"

# Module.value  reason  (a nested value is named Module.Sub.value)
allowlist='
Obj_store.set_default_gc_domains  called by the frozen bench/e2e (a no-op since the crew was deleted)
'

vals=$(find "$root/lib" -name '*.mli' | sort | xargs awk '
  FNR == 1 {
    n = split(FILENAME, parts, "/")
    base = parts[n]
    sub(/\.mli$/, "", base)
    mod = toupper(substr(base, 1, 1)) substr(base, 2)
    own = FILENAME
    sub(/i$/, "", own)
    inner = ""
  }
  # A nested `module X : sig ... end` exports X.v, used as `M.X.v`.
  /^module [A-Z][A-Za-z0-9_\047]* *: *sig/ { inner = $2; next }
  /^end/ { inner = ""; next }
  /^val [a-z_][A-Za-z0-9_\047]*/ { emit(mod, mod) }
  inner != "" && /^  val [a-z_][A-Za-z0-9_\047]*/ { emit(inner, mod "." inner) }
  function emit(key, path,   name) {
    name = $2
    sub(/[^A-Za-z0-9_\047].*$/, "", name)
    printf "%s.%s %s.%s %s %s:%d\n", key, name, path, name, own, FILENAME, FNR
  }
')

sources=$(find "$root/lib" "$root/bin" "$root/test" "$root/bench" \
  "$root/tools" "$root/examples" -name '*.ml' -not -path '*/e2e/*' \
  -not -path '*/_build/*' 2>/dev/null | sort)

# One line per use: "<file> <Module>.<value>".
uses=$(printf '%s\n' $sources | xargs awk '
  # Strip comments (nested) and string literals, keeping line structure.
  function strip(line,   out, i, c, d) {
    out = ""
    for (i = 1; i <= length(line); i++) {
      c = substr(line, i, 1)
      d = substr(line, i, 2)
      if (in_str) {
        if (c == "\\") i++
        else if (c == "\"") in_str = 0
        continue
      }
      if (d == "(*") { depth++; i++; continue }
      if (depth > 0) {
        if (d == "*)") { depth--; i++ }
        else if (c == "\"") in_str = 1
        continue
      }
      if (c == "\"") { in_str = 1; out = out " "; continue }
      # A char literal of a double quote must not open a string.
      if (c == "\047" && substr(line, i + 2, 1) == "\047") {
        i += 2; out = out " "; continue
      }
      out = out c
    }
    return out
  }
  function last(path,   n, p) {
    n = split(path, p, ".")
    return p[n]
  }
  function resolve(m) {
    while (m in alias) m = alias[m]
    return m
  }
  function flush(   i, line, rest, tok, m, v, k, w, target) {
    if (file == "") return
    for (i = 1; i <= nlines; i++) {
      line = lines[i]
      if (match(line, /^[ \t]*module [A-Z][A-Za-z0-9_\047]* *= *[A-Z][A-Za-z0-9_.\047]* *$/)) {
        split(line, w, /[ \t=]+/)
        k = (w[1] == "module") ? 2 : 3
        # `module Vec = Gcperf_util.Vec` names the module itself.
        target = last(w[k + 1])
        if (target != w[k]) alias[w[k]] = target
      }
    }
    for (i = 1; i <= nlines; i++) {
      line = lines[i]
      rest = line
      while (match(rest, /(^|[^A-Za-z0-9_\047.])open!? +[A-Z][A-Za-z0-9_.\047]*/)) {
        tok = substr(rest, RSTART, RLENGTH)
        sub(/^.*open!? +/, "", tok)
        opened[resolve(last(tok))] = 1
        rest = substr(rest, RSTART + RLENGTH)
      }
      rest = line
      while (match(rest, /[A-Z][A-Za-z0-9_\047]*\.\(/)) {
        tok = substr(rest, RSTART, RLENGTH - 2)
        opened[resolve(tok)] = 1
        rest = substr(rest, RSTART + RLENGTH)
      }
      rest = line
      while (match(rest, /[A-Z][A-Za-z0-9_\047]*(\.[A-Z][A-Za-z0-9_\047]*)*\.[a-z_][A-Za-z0-9_\047]*/)) {
        tok = substr(rest, RSTART, RLENGTH)
        v = last(tok)
        m = substr(tok, 1, length(tok) - length(v) - 1)
        print file, resolve(last(m)) "." v
        rest = substr(rest, RSTART + RLENGTH)
      }
    }
    for (m in opened) {
      for (i = 1; i <= nlines; i++) {
        rest = lines[i]
        while (match(rest, /[a-z_][A-Za-z0-9_\047]*/)) {
          print file, m "." substr(rest, RSTART, RLENGTH)
          rest = substr(rest, RSTART + RLENGTH)
        }
      }
    }
    split("", alias); split("", opened); split("", lines)
  }
  FNR == 1 { flush(); file = FILENAME; nlines = 0; depth = 0; in_str = 0 }
  { lines[++nlines] = strip($0) }
  END { flush() }
' | sort -u)

printf '%s\n' "$vals" | awk -v allow="$allowlist" '
  NR == FNR { used[$2] = used[$2] " " $1 " "; next }
  {
    own = " " $3 " "
    if (index(allow, "\n" $2 " ") > 0) { allowed[$2] = 1; next }
    callers = used[$1]
    while ((i = index(callers, own)) > 0)
      callers = substr(callers, 1, i) substr(callers, i + length(own))
    if (callers ~ /[^ ]/) next
    printf "%s: %s has no caller outside its module\n", $4, $2 > "/dev/stderr"
    failures++
  }
  END {
    # An allowlist entry whose value is gone is stale.
    n = split(allow, entries, "\n")
    for (k = 1; k <= n; k++) {
      split(entries[k], f, " ")
      if (f[1] != "" && !(f[1] in allowed)) {
        printf "stale allowlist entry: %s is not exported\n", f[1] > "/dev/stderr"
        failures++
      }
    }
    if (failures > 0) {
      printf "no_dead_exports: %d problem(s) in lib/ exports;" \
        " delete each value, drop it from its .mli, or allowlist it with" \
        " a reason\n", failures > "/dev/stderr"
      exit 1
    }
    print "no_dead_exports: OK"
  }
' <(printf '%s\n' "$uses") -
