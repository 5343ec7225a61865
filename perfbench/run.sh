#!/usr/bin/env bash
# Builds the benchmark from source, then runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository.  Build output goes to stderr, the
# benchmark's report (last line: one JSON object) to stdout.
#
# service-rw and router-fanout are pinned to one CPU, the first this shell
# may use, when taskset is there: on a shared machine with few cores, their
# threads and processes spread over CPUs paid cross-CPU wake-ups whose cost
# followed where the scheduler put them, and their sub-millisecond medians
# jumped by a third between runs of the same code (perfbench/WORKLOADS.md).
set -euo pipefail
dune build --root . --display quiet ./perfbench/main.exe 1>&2
bin=./_build/default/perfbench/main.exe
case " $* " in
  *" service-rw "* | *" router-fanout "*)
    cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*\([0-9]*\).*/\1/p' /proc/self/status 2>/dev/null || true)
    if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1; then
      exec taskset -c "$cpu" "$bin" "$@"
    fi
    echo "run.sh: taskset not found, running unpinned" 1>&2
    ;;
esac
exec "$bin" "$@"
