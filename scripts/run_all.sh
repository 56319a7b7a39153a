#!/usr/bin/env bash
# The checks ctest cannot run, around one full ctest pass. Every other
# check is a ctest entry: lint (`lint`, `LintTree.*`), the paper tables
# (`ctest -L paper`), the triad_timed loopback checks (`ctest -L net`).
# Outputs land under $BUILD_DIR/artifacts/, never at the repo root.
#
#   scripts/run_all.sh      # build, cppcheck + clang-tidy when
#                           # installed, ctest, telemetry overhead
#   TRIAD_SANITIZE=address scripts/run_all.sh
#                           # first runs `cmake --workflow --preset asan`:
#                           # ASan+UBSan (Debug), the whole suite
#   TRIAD_SANITIZE=thread scripts/run_all.sh
#                           # first runs `cmake --workflow --preset tsan`:
#                           # TSan, the tests labelled `threads`
#   TRIAD_PERF_GATE=fail scripts/run_all.sh
#                           # fails the run when bench_triad_loopback's
#                           # telemetry overhead is above 5%; the
#                           # default 'warn' only reports it
#
# Legs, in order; the first failing one stops the run:
#   1. configure and build $BUILD_DIR (warnings are errors);
#   2. cppcheck and clang-tidy over src/, each only when installed;
#   3. the sanitizer workflow (CMakePresets.json), when TRIAD_SANITIZE
#      is address or thread;
#   4. ctest over $BUILD_DIR;
#   5. bench_triad_loopback's `overhead` line (telemetry on vs off).
set -u

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
ART="$BUILD_DIR/artifacts"

cmake -B "$BUILD_DIR" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  || { echo "configure failed" >&2; exit 1; }
cmake --build "$BUILD_DIR" || { echo "build failed" >&2; exit 1; }
mkdir -p "$ART"

# ---- cppcheck and clang-tidy: no ctest entry, since the image may lack
# either tool. Each one that is installed must come back clean.
if command -v cppcheck > /dev/null 2>&1; then
  cppcheck --quiet --error-exitcode=1 --inline-suppr \
      --enable=warning,performance,portability \
      --suppress=missingIncludeSystem -I src src \
    || { echo "cppcheck failed" >&2; exit 1; }
fi
if command -v clang-tidy > /dev/null 2>&1; then
  # .clang-tidy at the repo root mirrors the -Wall -Wextra -Wshadow
  # -Wnon-virtual-dtor -Werror warning set; -p points clang-tidy at the
  # compile_commands.json the configure above exported.
  find src -name '*.cpp' -print0 \
      | xargs -0 clang-tidy -p "$BUILD_DIR" --quiet \
    || { echo "clang-tidy failed" >&2; exit 1; }
fi

# The presets' test steps: tsan selects the `threads` label (set where
# each test is registered); TSan exits nonzero on any report, so a clean
# pass means zero races. asan runs everything.
case "${TRIAD_SANITIZE:-0}" in
  0) preset= ;;
  address) preset=asan ;;
  thread) preset=tsan ;;
  *) echo "TRIAD_SANITIZE must be address or thread" \
          "(got '$TRIAD_SANITIZE')" >&2
     exit 1 ;;
esac
if [ -n "$preset" ]; then
  cmake --workflow --preset "$preset" 2>&1 \
    | tee "$ART/test_output_$preset.txt"
  test "${PIPESTATUS[0]}" -eq 0 \
    || { echo "$preset workflow failed" >&2; exit 1; }
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure 2>&1 \
  | tee "$ART"/test_output.txt
test "${PIPESTATUS[0]}" -eq 0 \
  || { echo "regular test tier failed" >&2; exit 1; }

# ---- telemetry overhead: bench_triad_loopback serves the same load
# with the telemetry plane off and on (trace ring, detectors, a live
# scraper) in alternating pairs, in one run on one machine, and prints
# the median per-request difference as its `overhead` line. It exits 1
# on any bad, tainted or non-monotone answer. TRIAD_PERF_GATE=fail
# makes an overhead above 5% fatal; the default 'warn' only reports it,
# since both legs share a noisy box.
LOOPBACK_OUT="$ART"/bench_triad_loopback.txt
"$BUILD_DIR"/bench/bench_triad_loopback 2>&1 | tee "$LOOPBACK_OUT"
test "${PIPESTATUS[0]}" -eq 0 \
  || { echo "bench_triad_loopback failed" >&2; exit 1; }
if grep -q '^SKIPPED' "$LOOPBACK_OUT"; then
  echo "telemetry overhead check SKIPPED" \
       "($(grep -m 1 '^SKIPPED' "$LOOPBACK_OUT"))"
else
  overhead=$(awk '$1 == "overhead" { print $2; exit }' "$LOOPBACK_OUT")
  [ -n "$overhead" ] \
    || { echo "telemetry overhead: no overhead line in $LOOPBACK_OUT" >&2
         exit 1; }
  if awk -v pct="$overhead" 'BEGIN { exit !(pct + 0 > 5) }'; then
    case "${TRIAD_PERF_GATE:-warn}" in
      fail) echo "telemetry overhead: ${overhead}% per request > 5%" \
                 "(TRIAD_PERF_GATE=fail)" >&2
            exit 1 ;;
      *)    echo "telemetry overhead: WARNING ${overhead}% per request" \
                 "> 5% (gate=warn)" >&2 ;;
    esac
  else
    echo "telemetry overhead ok: ${overhead}% per request (<= 5%," \
         "telemetry on vs off in one run)"
  fi
fi

echo "artifacts under $ART/ (test_output.txt, bench_triad_loopback.txt)"
[ -z "$preset" ] || echo "wrote $ART/test_output_$preset.txt ($preset run)"
