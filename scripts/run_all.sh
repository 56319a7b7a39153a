#!/usr/bin/env bash
# Builds everything, runs the static-analysis tier, the full test suite,
# every figure/table bench, and records the outputs EXPERIMENTS.md is
# based on. All generated artifacts land under $BUILD_DIR/artifacts/ —
# never at the repo root.
#
#   scripts/run_all.sh                  # static tier + build + tests + benches
#   TRIAD_STATIC_GATE=warn scripts/run_all.sh
#                                       # report static-tier failures
#                                       # (triad_lint / cppcheck /
#                                       # clang-tidy) without aborting;
#                                       # the default 'fail' stops the run
#   TRIAD_SANITIZE=address scripts/run_all.sh
#                                       # additionally builds with ASan+UBSan
#                                       # and runs the test suite under them
#                                       # (TRIAD_SANITIZE=1 still works)
#   TRIAD_SANITIZE=thread scripts/run_all.sh
#                                       # additionally builds with TSan and
#                                       # runs the Logger concurrency test
#                                       # plus the jobs-4 campaign race test
#   BENCH_FILTER=loopback scripts/run_all.sh
#                                       # runs only the benches whose name
#                                       # contains the substring
#   TRIAD_PERF_GATE=fail scripts/run_all.sh
#                                       # fails the run when the loopback
#                                       # bench's telemetry overhead is
#                                       # above 5%; the default 'warn'
#                                       # only reports it
set -u

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
ART="$BUILD_DIR/artifacts"

# ---- static tier: triad_lint (R1-R9 + stale-allowlist audit) and,
# when installed, cppcheck and clang-tidy (driven off the exported
# compile_commands.json) — before any test runs. TRIAD_WERROR defaults
# ON, so the build below is the warning gate; the lint gate runs first
# because it is much cheaper than a full compile.
# TRIAD_STATIC_GATE=fail (the default) aborts when any gated tool
# fails; =warn prints the verdicts and continues. A stale [allow] entry
# always hard-fails regardless of the gate: the allowlist must stay an
# exact census of sanctioned exceptions.
STATIC_GATE=${TRIAD_STATIC_GATE:-fail}
cmake -B "$BUILD_DIR" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$BUILD_DIR" --target triad_lint
lint_verdict=ok allow_verdict=ok
cppcheck_verdict=skipped tidy_verdict=skipped
static_fail=0
if ! "$BUILD_DIR"/tools/lint/triad_lint --root . \
    --config tools/lint/lint_rules.toml; then
  lint_verdict=FAIL
  static_fail=1
elif ! "$BUILD_DIR"/tools/lint/triad_lint --root . \
    --config tools/lint/lint_rules.toml --fail-unused-allow \
    > /dev/null 2>&1; then
  allow_verdict=FAIL
fi
if command -v cppcheck > /dev/null 2>&1; then
  if cppcheck --quiet --error-exitcode=1 --inline-suppr \
      --enable=warning,performance,portability \
      --suppress=missingIncludeSystem -I src src; then
    cppcheck_verdict=ok
  else
    cppcheck_verdict=FAIL
    static_fail=1
  fi
fi
if command -v clang-tidy > /dev/null 2>&1; then
  # .clang-tidy at the repo root mirrors the -Wall -Wextra -Wshadow
  # -Wnon-virtual-dtor -Werror warning set; -p points clang-tidy at the
  # compile_commands.json the configure above exported.
  if find src -name '*.cpp' -print0 \
      | xargs -0 clang-tidy -p "$BUILD_DIR" --quiet; then
    tidy_verdict=ok
  else
    tidy_verdict=FAIL
    static_fail=1
  fi
fi
echo "static tier: triad_lint=$lint_verdict cppcheck=$cppcheck_verdict" \
     "clang-tidy=$tidy_verdict unused-allow=$allow_verdict" \
     "(gate=$STATIC_GATE)"
if [ "$allow_verdict" = FAIL ]; then
  "$BUILD_DIR"/tools/lint/triad_lint --root . \
      --config tools/lint/lint_rules.toml --fail-unused-allow || true
  echo "static tier: stale [allow] entries — prune them from" \
       "tools/lint/lint_rules.toml" >&2
  exit 1
fi
if [ "$static_fail" -ne 0 ]; then
  case "$STATIC_GATE" in
    warn) echo "static tier: WARNING failures above" \
               "(TRIAD_STATIC_GATE=warn)" >&2 ;;
    *)    echo "static tier: failed (TRIAD_STATIC_GATE=$STATIC_GATE)" >&2
          exit 1 ;;
  esac
fi

cmake --build "$BUILD_DIR"
mkdir -p "$ART"

case "${TRIAD_SANITIZE:-0}" in
  0) ;;
  thread)
    cmake -B build-tsan -G Ninja -DTRIAD_SANITIZE=thread
    cmake --build build-tsan
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
    cmake -B build-asan -G Ninja -DTRIAD_SANITIZE=address \
          -DCMAKE_BUILD_TYPE=Debug
    cmake --build build-asan
    ctest --test-dir build-asan --output-on-failure 2>&1 \
      | tee "$ART"/test_output_asan.txt
    test "${PIPESTATUS[0]}" -eq 0 \
      || { echo "ASan tier failed" >&2; exit 1; }
    ;;
esac

# The regular suite gates the rest of the flow: it carries the obs smoke
# (ctest entry obs-smoke) that used to run here as bash.
ctest --test-dir "$BUILD_DIR" --output-on-failure 2>&1 \
  | tee "$ART"/test_output.txt
test "${PIPESTATUS[0]}" -eq 0 \
  || { echo "regular test tier failed" >&2; exit 1; }

# ---- realenv smoke tier: a triad_timed loopback trio (TA + 3 nodes,
# real UDP/epoll) must calibrate, serve sealed timestamps with zero auth
# failures and per-node monotone timestamps, and exit cleanly on
# SIGTERM. Skips loudly when the sandbox has no loopback sockets (the
# probe run below fails to bind).
REALENV_PORT=${REALENV_PORT:-47830}
TIMED="$BUILD_DIR/examples/triad_timed"
if "$TIMED" --role ta --id 9 --listen "127.0.0.1:$REALENV_PORT" \
    --duration 0.2 > "$ART"/realenv_probe.txt 2>&1; then
  "$TIMED" --role ta --id 9 --listen "127.0.0.1:$REALENV_PORT" \
      --telemetry "127.0.0.1:$((REALENV_PORT + 20))" \
      > "$ART"/realenv_ta.txt 2>&1 &
  realenv_ta_pid=$!
  realenv_node_pids=""
  for i in 1 2 3; do
    "$TIMED" --role node --id "$i" \
        --listen "127.0.0.1:$((REALENV_PORT + i))" \
        --serve "127.0.0.1:$((REALENV_PORT + 10 + i))" --workers 2 \
        --peer "9=127.0.0.1:$REALENV_PORT" \
        --calib-pairs 2 --calib-wait-high 0.05 \
        --telemetry "127.0.0.1:$((REALENV_PORT + 20 + i))" --detectors \
        --metrics "$ART/realenv_node$i.prom" \
        > "$ART/realenv_node$i.txt" 2>&1 &
    realenv_node_pids="$realenv_node_pids $!"
  done
  realenv_ok=1
  # Nodes answer `tainted` (unavailable) until their first TA
  # calibration completes — instantly, not after a timeout — so poll
  # each serve port with a single-probe client before the scored run.
  # Every attempt needs a fresh client id: a new process restarts the
  # channel sequence at 0, and a reused id trips the node's replay
  # protection (counted as bad_frames).
  for i in 1 2 3; do
    ready=0
    for t in $(seq 1 50); do
      if "$TIMED" --role client --id "$((100 * i + 100 + t))" \
          --server "$i=127.0.0.1:$((REALENV_PORT + 10 + i))" \
          --requests 1 > /dev/null 2>&1; then
        ready=1; break
      fi
      sleep 0.1
    done
    [ "$ready" -eq 1 ] \
      || { echo "realenv tier: node $i never became available" >&2
           realenv_ok=0; }
  done
  for i in 1 2 3; do
    "$TIMED" --role client --id "$((40 + i))" \
        --server "$i=127.0.0.1:$((REALENV_PORT + 10 + i))" \
        --requests 50 > "$ART/realenv_client$i.txt" 2>&1 \
      || { echo "realenv tier: client against node $i failed" >&2
           realenv_ok=0; }
    grep -q 'bad_frames=0' "$ART/realenv_client$i.txt" \
      || { echo "realenv tier: client $i saw auth failures" >&2
           realenv_ok=0; }
  done
  # ---- telemetry plane: scrape the live daemons (plain /dev/tcp — no
  # curl in the image), validate the pages, and let triad_mon pull the
  # whole fleet while it is still running.
  scrape() {  # scrape PORT PATH OUT
    exec 3<> "/dev/tcp/127.0.0.1/$1" || return 1
    printf 'GET %s HTTP/1.0\r\n\r\n' "$2" >&3
    cat <&3 > "$3"
    exec 3<&- 3>&-
  }
  for i in 1 2 3; do
    scrape "$((REALENV_PORT + 20 + i))" /metrics \
        "$ART/realenv_scrape$i.txt" 2> /dev/null \
      || { echo "realenv tier: node $i telemetry scrape failed" >&2
           realenv_ok=0; }
    awk -f scripts/check_prom.awk -v http=1 -v require_detectors=1 \
        -v families=scripts/prom_families.txt "$ART/realenv_scrape$i.txt" \
      || { echo "realenv tier: node $i scraped metrics invalid" >&2
           realenv_ok=0; }
  done
  "$BUILD_DIR/examples/triad_mon" \
      --node "9=127.0.0.1:$((REALENV_PORT + 20))" \
      --node "1=127.0.0.1:$((REALENV_PORT + 21))" \
      --node "2=127.0.0.1:$((REALENV_PORT + 22))" \
      --node "3=127.0.0.1:$((REALENV_PORT + 23))" \
      --out-dir "$ART/fleet" > "$ART/fleet_report.txt" \
    || { echo "realenv tier: triad_mon fleet scrape failed" >&2
         realenv_ok=0; }
  kill -TERM $realenv_ta_pid $realenv_node_pids 2> /dev/null
  for pid in $realenv_ta_pid $realenv_node_pids; do
    wait "$pid" \
      || { echo "realenv tier: pid $pid did not exit cleanly on SIGTERM" >&2
           realenv_ok=0; }
  done
  for i in 1 2 3; do
    grep -q 'bad_frames=0' "$ART/realenv_node$i.txt" \
      || { echo "realenv tier: node $i counted bad frames" >&2
           realenv_ok=0; }
    # A dropped trace event would make the offline replay below unsound.
    grep -q 'dropped 0' "$ART/realenv_node$i.txt" \
      || { echo "realenv tier: node $i trace ring dropped events" >&2
           realenv_ok=0; }
  done
  # Offline==online: replaying each shipped per-node trace through
  # triad_trace must reproduce triad_mon's per-node verdict byte for
  # byte — the live detectors and the offline forensics are one code
  # path, so any divergence is a wiring bug.
  for i in 1 2 3 9; do
    "$BUILD_DIR/examples/triad_trace" "$ART/fleet/node$i.jsonl" \
        > "$ART/fleet/node$i.replay.txt" 2> /dev/null
    cmp -s "$ART/fleet/node$i.replay.txt" "$ART/fleet/node$i.forensic.txt" \
      || { echo "realenv tier: node $i live verdict != offline replay" >&2
           realenv_ok=0; }
  done
  # The scraped page and the --metrics exit dump are the same registry
  # rendered at different instants: sample values move, but the family
  # set must match exactly.
  for i in 1 2 3; do
    grep '^# TYPE ' "$ART/realenv_scrape$i.txt" | sort \
        > "$ART/realenv_scrape$i.families"
    grep '^# TYPE ' "$ART/realenv_node$i.prom" | sort \
        | cmp -s - "$ART/realenv_scrape$i.families" \
      || { echo "realenv tier: node $i scrape vs exit-dump families differ" >&2
           realenv_ok=0; }
  done
  [ "$realenv_ok" -eq 1 ] \
    || { echo "realenv tier failed (see $ART/realenv_*.txt)" >&2; exit 1; }
  served=$(awk -F'[ /]' '/^served/ { sum += $2 } END { print sum }' \
               "$ART"/realenv_client[123].txt)
  echo "realenv smoke ok: trio served $served sealed probes," \
       "zero auth failures, telemetry verified, clean SIGTERM"
else
  echo "realenv tier SKIPPED (no loopback UDP:" \
       "$(tail -n 1 "$ART"/realenv_probe.txt))"
fi

# ---- bench tier. BENCH_FILTER=substr runs only the matching binaries
# (e.g. BENCH_FILTER=loopback). Each bench's output also lands in
# $ART/<bench>.txt, and its own exit status is checked via PIPESTATUS —
# a plain `"$b" | tee` would report tee's status and let a crashing
# bench slip through. Bounded performance claims go through perfbench/,
# not this tier.
: > "$ART"/bench_output.txt
LOOPBACK_OUT="$ART"/bench_triad_loopback.txt
rm -f "$LOOPBACK_OUT"
for b in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  name=$(basename "$b")
  case "$name" in
    *"${BENCH_FILTER:-}"*) ;;
    *) echo "===== $name skipped (BENCH_FILTER=${BENCH_FILTER:-})" \
         | tee -a "$ART"/bench_output.txt
       continue ;;
  esac
  echo "===== $name =====" | tee -a "$ART"/bench_output.txt
  "$b" 2>&1 | tee "$ART/$name.txt"
  status=${PIPESTATUS[0]}
  cat "$ART/$name.txt" >> "$ART"/bench_output.txt
  test "$status" -eq 0 \
    || { echo "bench tier: $name failed" >&2; exit 1; }
done

# ---- telemetry overhead: bench_triad_loopback serves the same load
# with the telemetry plane off and on (trace ring, detectors, a live
# scraper) in alternating pairs, in one run on one machine, and prints
# the median per-request difference as its `overhead` line.
# TRIAD_PERF_GATE=fail makes an overhead above 5% fatal; the default
# 'warn' only reports it, since both legs share a noisy box.
if [ ! -f "$LOOPBACK_OUT" ]; then
  echo "telemetry overhead check SKIPPED (bench_triad_loopback not run," \
       "BENCH_FILTER=${BENCH_FILTER:-})"
elif grep -q '^SKIPPED' "$LOOPBACK_OUT"; then
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

echo "artifacts under $ART/ (test_output.txt, bench_output.txt, ...)"
case "${TRIAD_SANITIZE:-0}" in
  0) ;;
  thread) echo "wrote $ART/test_output_tsan.txt (TSan run)" ;;
  *) echo "wrote $ART/test_output_asan.txt (ASan+UBSan run)" ;;
esac
