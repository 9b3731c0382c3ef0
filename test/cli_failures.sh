#!/usr/bin/env bash
# CLI failure paths: every unknown name must exit non-zero with an
# actionable message (and a did-you-mean suggestion when a close
# candidate exists) on stderr.  Run by the `runtest` alias; $1 is the
# gcperf binary.
set -u

gcperf="$1"
failures=0

# check NAME EXPECTED_EXIT STDERR_SUBSTRING... -- ARGS...
check() {
  local name="$1" expected="$2"
  shift 2
  local substrings=()
  while [ "$1" != "--" ]; do
    substrings+=("$1")
    shift
  done
  shift # drop --
  local stderr exit_code
  stderr=$("$gcperf" "$@" 2>&1 >/dev/null)
  exit_code=$?
  if [ "$exit_code" -ne "$expected" ]; then
    echo "FAIL $name: exit $exit_code, expected $expected" >&2
    failures=$((failures + 1))
    return
  fi
  for s in "${substrings[@]}"; do
    case "$stderr" in
      *"$s"*) ;;
      *)
        echo "FAIL $name: stderr missing '$s'" >&2
        echo "  stderr was: $stderr" >&2
        failures=$((failures + 1))
        return
        ;;
    esac
  done
  echo "ok $name"
}

# cmdliner rejects an unknown subcommand with its own exit code (124).
check unknown-subcommand 124 "unknown command" -- frobnicate

# Unknown names on our own resolution paths: exit 1 + did-you-mean.
check unknown-collector 1 "unknown collector" "did you mean" \
  -- bench xalan --gc parallelld -n 1
check unknown-experiment 1 "unknown experiment" "did you mean" \
  -- run fig33 --scope ci
check unknown-experiment-distil 1 "unknown experiment" "did you mean" "distill" \
  -- run distil --scope ci
check unknown-benchmark 1 "unknown benchmark" "did you mean" \
  -- bench xaln -n 1
check unknown-fault-profile 1 "unknown fault profile" "did you mean" \
  -- bench xalan -n 1 --faults strom
check unknown-scope 1 "unknown scope" -- run table2 --scope huge
check unknown-format 1 "unknown format" -- run table2 --scope ci --format yaml

# Retired options (host parallelism, the boolean run budget) are
# unknown options now.
check retired-trace-jobs 124 "unknown option" -- run table2 --trace-jobs 2
check retired-gc-jobs 124 "unknown option" -- run table2 --gc-jobs 2
check retired-quick 124 "unknown option" -- run table2 --quick

# --jobs is bounded by OCaml's domain limit; both ends are rejected while
# parsing, before any domain starts.
check jobs-zero 124 "--jobs" "must be an integer in 1..128" \
  -- run table2 --scope ci --jobs 0
check jobs-over-limit 124 "--jobs" "must be an integer in 1..128" \
  -- check-identity --jobs 129

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI failure-path check(s) failed" >&2
  exit 1
fi
echo "all CLI failure paths behave"
