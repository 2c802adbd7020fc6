#!/usr/bin/env bash
# Closed-loop smoke for the network ingest plane: serve the fleet engine on
# a Unix socket, drive the identical synthetic cohort through it, and check
# the served run against an in-process `siftctl fleet` golden. Both sides
# synthesise their packet streams from the same ReplayConfig (same seed,
# same session partitioning), so the window/packet counts must agree
# exactly; the per-verdict bit-identity claim is covered by net_test.
#
# Usage: serve_smoke.sh <path-to-siftctl> [workdir]
set -euo pipefail

SIFTCTL="${1:?usage: serve_smoke.sh <path-to-siftctl> [workdir]}"
WORK="${2:-$(mktemp -d)}"
mkdir -p "$WORK"
SOCK="$WORK/serve_smoke.sock"
SESSIONS=32
SECONDS_PER_SESSION=6
MODELS=2

echo "== golden: in-process replay =="
"$SIFTCTL" fleet --sessions "$SESSIONS" --seconds "$SECONDS_PER_SESSION" \
  --models "$MODELS" --workers 2 >"$WORK/golden.json"

echo "== serve on unix:$SOCK =="
"$SIFTCTL" serve --listen "unix:$SOCK" --models "$MODELS" \
  --train-seconds 30 --workers 2 >"$WORK/serve.json" 2>"$WORK/serve.log" &
SERVE_PID=$!
trap 'kill -TERM "$SERVE_PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 150); do
  [ -S "$SOCK" ] && break
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "FAIL: server exited during startup"; cat "$WORK/serve.log"; exit 1
  fi
  sleep 0.2
done
[ -S "$SOCK" ] || { echo "FAIL: socket never appeared"; cat "$WORK/serve.log"; exit 1; }

echo "== drive the closed loop =="
"$SIFTCTL" drive --connect "unix:$SOCK" --connections 8 \
  --users "$SESSIONS" --seconds "$SECONDS_PER_SESSION" --models "$MODELS" \
  >"$WORK/drive.out"
cat "$WORK/drive.out"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT

echo "== compare served run against golden =="
python3 - "$WORK" <<'PY'
import json, re, sys
work = sys.argv[1]
golden = json.load(open(f"{work}/golden.json"))
served = json.load(open(f"{work}/serve.json"))
drive = open(f"{work}/drive.out").read()
m = re.search(r"drive: sent=(\d+) accepted=(\d+) rejected=(\d+) "
              r"windows=(\d+)", drive)
assert m, f"unparseable drive output: {drive!r}"
sent, accepted, rejected, windows = map(int, m.groups())
# The drive's only sender resumes from the server's cursors after a wire
# error; on this clean wire it must send every packet exactly once.
m = re.search(r"reconnects=(\d+) resumes=\d+ skipped=(\d+)", drive)
assert m, f"unparseable drive output: {drive!r}"
reconnects, skipped = map(int, m.groups())

failures = []
def check(name, got, want):
    status = "ok" if got == want else "MISMATCH"
    print(f"  {name}: {got} (expected {want}) {status}")
    if got != want:
        failures.append(name)

check("drive accepted == sent", accepted, sent)
check("drive rejected", rejected, 0)
check("drive reconnects", reconnects, 0)
check("drive packets skipped", skipped, 0)
check("served windows == golden windows",
      served["fleet.windows_classified"],
      golden["fleet.windows_classified"])
check("drive windows == golden windows", windows,
      golden["fleet.windows_classified"])
check("served packets_in == sent", served["net.packets_in"], sent)
check("served packets streamed == sent",
      served["net.packets_streamed"], sent)
check("protocol errors", served["net.protocol_errors"], 0)
check("packets abandoned at shutdown", served["net.packets_abandoned"], 0)
check("connections still open", served["net.connections_open"], 0)
# Delivery confirmation reads cursors; only a reconnect resumes, and a
# clean wire has none. A resume here would arm the replay grace.
check("served reconnects", served["net.reconnects"], 0)
check("served resumes", served["net.resumes"], 0)
# The per-thread CPU split, read at drain start: the net loop and the
# worker both ran, so both show on-CPU time.
for thread in ("sift-net", "sift-worker-0"):
    key = f"gateway.thread.{thread}.run_us"
    check(f"{key} > 0", served.get(key, 0) > 0, True)

if failures:
    print(f"FAIL: {failures}")
    sys.exit(1)
print("OK: served closed loop matches in-process golden")
PY
