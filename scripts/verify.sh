#!/usr/bin/env bash
# Tiered verification runner for the GesturePrint repo.
#
#   scripts/verify.sh            # tier 1: default build + full ctest
#   scripts/verify.sh asan       # tier 2: -DGP_SANITIZE=address build,
#                                #         fuzz-smoke + obs-smoke + fault + mem
#                                #         + gemm + quant + cluster labels
#   scripts/verify.sh tsan       # tier 3: -DGP_SANITIZE=thread build,
#                                #         tsan-smoke + serve + health labels
#   scripts/verify.sh all        # tiers 1 + 2 + 3 in sequence
#
# Tier 1 is the bar every PR must clear (ROADMAP "tier-1"); the sanitizer
# tiers re-run the labelled smoke subsets in instrumented builds. Each tier
# uses its own build directory (build, build-asan, build-tsan) so the
# instrumented caches never pollute the default one.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
MODE="${1:-tier1}"

run_tier1() {
  echo "==> tier 1: default build + full test suite"
  cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
  cmake --build "$ROOT/build" -j "$JOBS"
  (cd "$ROOT/build" && ctest --output-on-failure -j "$JOBS")
}

run_asan() {
  echo "==> tier 2: AddressSanitizer build, fuzz-smoke + obs-smoke + fault + mem + gemm + quant + cluster + enroll labels"
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DGP_SANITIZE=address >/dev/null
  cmake --build "$ROOT/build-asan" -j "$JOBS"
  # mem rides the asan lane: the counting operator new/delete and the arena
  # reuse paths must stay clean under ASan's allocator interposition.
  # gemm + quant ride it too: the register-tiled edge handling, the
  # ball query's prefix and padding indexing and the int8 panel/scratch
  # indexing are exactly where an out-of-bounds read hides.
  # cluster rides asan (not tsan): the wire decoders chew corrupted bytes and
  # the failover path replays serialized session state — both are
  # memory-safety surfaces — while the fork()ed single-threaded workers give
  # TSan nothing to see and are kept out of its lane.
  # enroll rides asan: the GPEB/GPBG readers parse untrusted bytes and the
  # buffered-evidence clouds move through take()/fine-tune ownership handoffs
  # — lifetime bugs there are ASan's department.
  (cd "$ROOT/build-asan" && ctest --output-on-failure -j "$JOBS" -L 'fuzz-smoke|obs-smoke|fault|mem|gemm|quant|cluster|enroll')
}

run_tsan() {
  echo "==> tier 3: ThreadSanitizer build, tsan-smoke + serve + health labels"
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DGP_SANITIZE=thread >/dev/null
  cmake --build "$ROOT/build-tsan" -j "$JOBS"
  # health rides the tsan lane: any-thread admission/shed/fault producers
  # racing the pump thread's close_tick, plus the lock-free flight recorder.
  (cd "$ROOT/build-tsan" && ctest --output-on-failure -j "$JOBS" -L 'tsan-smoke|serve|health')
}

case "$MODE" in
  tier1) run_tier1 ;;
  asan)  run_asan ;;
  tsan)  run_tsan ;;
  all)   run_tier1; run_asan; run_tsan ;;
  *)
    echo "usage: $0 [tier1|asan|tsan|all]" >&2
    exit 2
    ;;
esac
echo "==> verify.sh: '$MODE' passed"
