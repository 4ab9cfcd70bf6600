#!/usr/bin/env bash
# scripts/serve_smoke.sh — end-to-end smoke test of the magicd scan daemon.
#
# Exercises the full serving path with real binaries (no gtest):
#   1. magicd --selftrain: trains a tiny model and writes demo listings;
#   2. stdio mode: pipes scan requests through magicd, asserts JSON verdicts;
#   3. model registry over stdio: `reload` hot-swap, a per-request
#      `<id>@<version>` override, `shadow` mirroring, and the registry
#      counters in the stats payload;
#   4. socket mode: epoll daemon preloaded with a second version and shadow
#      mode on (--load/--shadow), scans via malware_scanner --serve, then
#      SIGTERMs the exact daemon PID and asserts a graceful exit.
#
# Usage:
#   scripts/serve_smoke.sh [BUILD_DIR]      # default: build
#
# Exits non-zero on the first failed assertion.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${ROOT}/build}"
MAGICD="${BUILD_DIR}/src/serve/magicd"
SCANNER="${BUILD_DIR}/examples/malware_scanner"

WORK="$(mktemp -d /tmp/magicd_smoke.XXXXXX)"
SOCKET="${WORK}/magicd.sock"
MODEL="${WORK}/model.txt"
DAEMON_PID=""
STDIO_PID=""
cleanup() {
  [[ -n "${DAEMON_PID}" ]] && kill "${DAEMON_PID}" 2>/dev/null || true
  [[ -n "${STDIO_PID}" ]] && kill "${STDIO_PID}" 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

[[ -x "${MAGICD}" ]] || fail "magicd not built at ${MAGICD}"
[[ -x "${SCANNER}" ]] || fail "malware_scanner not built at ${SCANNER}"

echo "==> selftrain (tiny corpus) + demo listings"
"${MAGICD}" --selftrain "${MODEL}" --samples-dir "${WORK}/samples" \
  --scale 0.002 --epochs 4 --seed 7
[[ -s "${MODEL}" ]] || fail "selftrain produced no model"
SAMPLES=()
while IFS= read -r f; do SAMPLES+=("$f"); done \
  < <(find "${WORK}/samples" -name '*.asm' | sort | head -3)
[[ "${#SAMPLES[@]}" -eq 3 ]] || fail "expected 3 demo listings, got ${#SAMPLES[@]}"

echo "==> stdio mode: 3 path requests + 1 duplicate + stats"
STDIO_OUT="${WORK}/stdio.out"
STDIO_IN="${WORK}/stdio.in"
mkfifo "${STDIO_IN}"
"${MAGICD}" --model "${MODEL}" --workers 2 < "${STDIO_IN}" > "${STDIO_OUT}" &
STDIO_PID=$!
exec 3>"${STDIO_IN}"
for i in 0 1 2; do
  echo "req${i} path ${SAMPLES[$i]}" >&3
done
# Wait for the first three verdicts before sending the duplicate, so the
# duplicate is a guaranteed verdict-cache hit rather than racing its
# original through the miss path. Nothing is sent while waiting: stdio
# mode writes each verdict as soon as it completes.
for _ in $(seq 1 200); do
  [[ "$(grep -c '"id":"req' "${STDIO_OUT}" || true)" -ge 3 ]] && break
  sleep 0.05
done
[[ "$(grep -c '"id":"req' "${STDIO_OUT}")" -ge 3 ]] \
  || fail "stdio mode: first 3 verdicts never flushed"
# Duplicate of sample 0: its verdict is already cached, so this must hit.
echo "req3 path ${SAMPLES[0]}" >&3
echo "stats" >&3
echo "quit" >&3
exec 3>&-
wait "${STDIO_PID}" || fail "magicd stdio exited nonzero"
STDIO_PID=""
[[ "$(wc -l < "${STDIO_OUT}")" -eq 5 ]] || fail "stdio mode: expected 5 response lines"
for i in 0 1 2 3; do
  grep -q "\"id\":\"req${i}\"" "${STDIO_OUT}" || fail "stdio mode: no response for req${i}"
done
[[ "$(grep -c '"status":"ok"' "${STDIO_OUT}")" -eq 4 ]] \
  || fail "stdio mode: expected 4 ok verdicts: $(cat "${STDIO_OUT}")"
grep -q '"completed":4' "${STDIO_OUT}" || fail "stdio mode: stats line wrong: $(tail -1 "${STDIO_OUT}")"
# The verdict cache is on by default (64 MiB); the duplicate request above
# must show up as exactly one hit in the stats cache block.
grep -q '"cache":{' "${STDIO_OUT}" || fail "stdio mode: stats line missing cache block: $(tail -1 "${STDIO_OUT}")"
grep -q '"cache":{"enabled":true' "${STDIO_OUT}" || fail "stdio mode: cache not enabled: $(tail -1 "${STDIO_OUT}")"
grep -q '"hits":1' "${STDIO_OUT}" || fail "stdio mode: expected 1 cache hit for the duplicate: $(tail -1 "${STDIO_OUT}")"
# The stats payload carries the process-wide obs registry alongside the
# per-server snapshot (serve latency quantiles live there).
grep -q '"obs":{' "${STDIO_OUT}" || fail "stdio mode: stats line missing obs registry: $(tail -1 "${STDIO_OUT}")"
grep -q '"serve.latency_ms"' "${STDIO_OUT}" || fail "stdio mode: stats line missing serve.latency_ms: $(tail -1 "${STDIO_OUT}")"
# Packed scoring is the only path: the stats snapshot must report the
# fused-batch counter (0 is fine for sequential stdio requests — the field
# itself proves the packed execution path is wired into the server).
grep -q '"packed_batches":' "${STDIO_OUT}" || fail "stdio mode: stats line missing packed_batches: $(tail -1 "${STDIO_OUT}")"
echo "    3/3 verdicts ok"

echo "==> model registry: reload hot-swap + version override + shadow (stdio)"
REG_OUT="${WORK}/registry.out"
{
  echo "r0 path ${SAMPLES[0]}"
  echo "reload v2 ${MODEL}"
  echo "rv@v1 path ${SAMPLES[1]}"
  echo "shadow v1 1.0"
  echo "r2 path ${SAMPLES[2]}"
  echo "stats"
  echo "quit"
} | "${MAGICD}" --model "${MODEL}" --workers 2 > "${REG_OUT}" \
  || fail "registry stdio: magicd exited nonzero"
[[ "$(wc -l < "${REG_OUT}")" -eq 6 ]] \
  || fail "registry stdio: expected 6 response lines: $(cat "${REG_OUT}")"
grep -q '"op":"reload"' "${REG_OUT}" || fail "registry stdio: no reload reply"
grep -q '"default":"v2"' "${REG_OUT}" \
  || fail "registry stdio: reload did not swap the default: $(cat "${REG_OUT}")"
# The @v1 override routes to the pre-reload version; the suffix is stripped
# from the echoed id.
grep -q '"id":"rv"' "${REG_OUT}" || fail "registry stdio: no override response"
grep -q '"op":"shadow"' "${REG_OUT}" || fail "registry stdio: no shadow reply"
[[ "$(grep -c '"status":"ok"' "${REG_OUT}")" -eq 5 ]] \
  || fail "registry stdio: expected 5 ok lines (3 scans + 2 control): $(cat "${REG_OUT}")"
# Registry counters in the stats payload: one reload, shadow v1 at 1.0, and
# exactly the one default-routed scan after `shadow` was mirrored.
grep -q '"registry":{' "${REG_OUT}" || fail "registry stdio: stats missing registry block: $(tail -1 "${REG_OUT}")"
grep -q '"reloads":1' "${REG_OUT}" || fail "registry stdio: stats missing reloads=1: $(tail -1 "${REG_OUT}")"
grep -q '"shadow":{"version":"v1","fraction":1' "${REG_OUT}" \
  || fail "registry stdio: stats missing shadow config: $(tail -1 "${REG_OUT}")"
grep -q '"mirrored":1' "${REG_OUT}" || fail "registry stdio: stats missing mirrored=1: $(tail -1 "${REG_OUT}")"
# Each listed version carries its graph-conv operator (PR 10 zoo): the
# parallel operators array must be present and name the paper operator for
# the self-trained default model.
grep -q '"operators":\["paper","paper"\]' "${REG_OUT}" \
  || fail "registry stdio: stats missing per-version operators: $(tail -1 "${REG_OUT}")"
echo "    reload + override + shadow ok, registry counters present"

echo "==> socket mode: epoll daemon (+preloaded v2, shadow 0.5) + malware_scanner --serve client"
"${MAGICD}" --model "${MODEL}" --socket "${SOCKET}" --workers 2 \
  --load v2="${MODEL}" --shadow v2:0.5 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [[ -S "${SOCKET}" ]] && break
  kill -0 "${DAEMON_PID}" 2>/dev/null || fail "daemon died during startup"
  sleep 0.05
done
[[ -S "${SOCKET}" ]] || fail "daemon socket never appeared"

CLIENT_OUT="${WORK}/client.out"
"${SCANNER}" --serve "${SOCKET}" "${SAMPLES[@]}" > "${CLIENT_OUT}"
[[ "$(grep -c '"status":"ok"' "${CLIENT_OUT}")" -eq 3 ]] \
  || fail "socket mode: expected 3 ok verdicts: $(cat "${CLIENT_OUT}")"
grep -q 'server-stats' "${CLIENT_OUT}" || fail "socket mode: no stats line"
# The socket stats payload carries the registry block (preloaded v2, shadow
# at 0.5: of 3 default-routed scans exactly one crosses the floor((n+1)*f)
# threshold) and the reactor's event-loop counters.
grep -q '"registry":{' "${CLIENT_OUT}" || fail "socket mode: stats missing registry block: $(cat "${CLIENT_OUT}")"
grep -q '"shadow":{"version":"v2"' "${CLIENT_OUT}" \
  || fail "socket mode: stats missing shadow config: $(cat "${CLIENT_OUT}")"
grep -q '"mirrored":1' "${CLIENT_OUT}" || fail "socket mode: expected exactly 1 mirrored scan: $(cat "${CLIENT_OUT}")"
grep -q '"reactor":{' "${CLIENT_OUT}" || fail "socket mode: stats missing reactor block: $(cat "${CLIENT_OUT}")"
echo "    3/3 verdicts ok over the socket, registry + reactor stats present"

echo "==> SIGTERM graceful drain"
kill -TERM "${DAEMON_PID}"
DAEMON_STATUS=0
wait "${DAEMON_PID}" || DAEMON_STATUS=$?
DAEMON_PID=""
[[ "${DAEMON_STATUS}" -eq 0 ]] || fail "daemon exited ${DAEMON_STATUS} after SIGTERM"
[[ ! -S "${SOCKET}" ]] || fail "socket file not removed on drain"
echo "    daemon drained cleanly (exit 0, socket unlinked)"

echo "serve smoke: all checks passed"
