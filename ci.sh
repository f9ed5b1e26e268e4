#!/bin/sh
# Minimal CI: build, run the test suite, then the bench smoke pass
# (micro-benchmarks with -quick plus the table1/example5 paper traces)
# and the fault-plan soak (lossy channels + crashes under the acked
# reliability layer must keep their consistency guarantees).
set -eux

dune build
dune runtest
dune build @bench-smoke
dune build @soak-smoke
dune build @serve-smoke
dune build @par-smoke
dune build @shared-smoke
# Columnar kernels must be observably invisible: identical traces with
# the columnar path forced on and off, both runtimes, 1 and 4 domains.
dune build @col-smoke
# Process-crash durability: merge/integrator/warehouse crashes (columnar
# on/off x domains 1/4) must recover — WAL + checkpoint replay plus the
# resync protocol — to a state byte-identical to a crash-free run.
dune build @crash-smoke
# Distributed warehouse: shards 1/2/4 over the same tenant workload
# (lossy links under ARQ) must serve byte-identical union contents,
# stay certified, and keep per-shard merge load flat as tenants scale.
dune build @dist-smoke
# Self-maintenance: Selfmaint_vm must be trace-identical to Complete_vm
# on every paper scenario (1 and 4 domains) with zero source queries.
dune build @selfmaint-smoke
# Merge fast path: the coalesced default must be trace-identical to
# per-message merging on every paper scenario (1 and 4 domains); every
# fused run must pass certify_fused and stay strongly consistent.
dune build @merge-smoke
# Fold every BENCH_*.json headline into BENCH_summary.json, append this
# run to BENCH_history.jsonl, and fail if the kernel headline regressed
# more than 1.5x against the last recorded run of the same kernel.
dune exec bench/main.exe -- -quick --check-regression summary
# The whole suite once more through the multicore runtime: MVC_DOMAINS
# flips the default parallel config, and every trace must be identical.
MVC_DOMAINS=4 dune runtest --force
# Code size, the figure ROADMAP's "same behaviour from less code" aim
# tracks: lines of lib/ .ml and .mli.
echo "lib/ lines: $(find lib \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l)"
