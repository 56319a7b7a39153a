#!/usr/bin/env bash
# The checks ctest cannot run, around one full ctest pass. Every other
# check is a ctest entry: lint (`lint`, `LintTree.*`), the paper tables
# (`ctest -L paper`), the triad_timed loopback checks (`ctest -L net`).
# Outputs land under $BUILD_DIR/artifacts/, never at the repo root.
#
#   scripts/run_all.sh      # build, cppcheck + clang-tidy when
#                           # installed, ctest, telemetry overhead
#   TRIAD_SANITIZE=address scripts/run_all.sh
#                           # first builds with ASan+UBSan (Debug) and
#                           # runs the whole suite under them
#                           # (TRIAD_SANITIZE=1 still works)
#   TRIAD_SANITIZE=thread scripts/run_all.sh
#                           # first builds with TSan and runs the
#                           # thread-heavy tests under it
#   TRIAD_PERF_GATE=fail scripts/run_all.sh
#                           # fails the run when bench_triad_loopback's
#                           # telemetry overhead is above 5%; the
#                           # default 'warn' only reports it
#
# Legs, in order; the first failing one stops the run:
#   1. configure and build $BUILD_DIR (warnings are errors);
#   2. cppcheck and clang-tidy over src/, each only when installed;
#   3. the sanitizer build and its ctest run, when TRIAD_SANITIZE is set;
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

case "${TRIAD_SANITIZE:-0}" in
  0) ;;
  thread)
    { cmake -B build-tsan -G Ninja -DTRIAD_SANITIZE=thread \
        && cmake --build build-tsan; } \
      || { echo "TSan build failed" >&2; exit 1; }
    # The thread-heavy paths: the Logger's concurrent level/gating test,
    # the campaign worker pool (jobs 1 vs 4 byte-compare runs inside the
    # tsan-campaign ctest entry), the real-transport runtime (epoll
    # loops + SO_REUSEPORT serve workers + snapshot board in
    # real_env_test), and the telemetry plane (scrape-signal atomics +
    # node-thread listener in timed_telemetry_test). TSan exits nonzero
    # on any report, so a clean pass means zero races.
    ctest --test-dir build-tsan --output-on-failure \
        -R 'LogTest|tsan-campaign|RealEnv|RealScheduler|UdpSocket|UdpTransport|TimedService|TimedTelemetry|SockAddr' \
        2>&1 | tee "$ART"/test_output_tsan.txt
    test "${PIPESTATUS[0]}" -eq 0 \
      || { echo "TSan tier failed" >&2; exit 1; }
    ;;
  *)
    # Debug (-O0): sanitizer accuracy over speed, and GCC 12's optimizer
    # false-fires -Wrestrict/-Wmaybe-uninitialized under -Werror at -O2
    # when combined with -fsanitize=address,undefined.
    { cmake -B build-asan -G Ninja -DTRIAD_SANITIZE=address \
          -DCMAKE_BUILD_TYPE=Debug \
        && cmake --build build-asan; } \
      || { echo "ASan build failed" >&2; exit 1; }
    ctest --test-dir build-asan --output-on-failure 2>&1 \
      | tee "$ART"/test_output_asan.txt
    test "${PIPESTATUS[0]}" -eq 0 \
      || { echo "ASan tier failed" >&2; exit 1; }
    ;;
esac

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
case "${TRIAD_SANITIZE:-0}" in
  0) ;;
  thread) echo "wrote $ART/test_output_tsan.txt (TSan run)" ;;
  *) echo "wrote $ART/test_output_asan.txt (ASan+UBSan run)" ;;
esac
