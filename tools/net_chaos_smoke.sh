#!/usr/bin/env bash
# Subprocess kill matrix for the network ingest plane: SIGKILL a real
# `siftctl serve` process repeatedly while a chaos drive (wire-fault shim +
# reconnect-with-resume senders) streams against it, relaunching with
# --recover each time, then diff the surviving verdict journal against an
# uninterrupted control run. This is the out-of-process twin of
# net_chaos_test: same claim (per-user journal bit-identity, exactly-once),
# but with actual SIGKILL, actual process boundaries, and actual fsynced
# files — nothing an in-process halt() could accidentally keep alive.
#
# Usage: net_chaos_smoke.sh <path-to-siftctl> [workdir] [kills] [seed]
set -euo pipefail

SIFTCTL="${1:?usage: net_chaos_smoke.sh <path-to-siftctl> [workdir] [kills] [seed]}"
WORK="${2:-$(mktemp -d)}"
KILLS="${3:-8}"
SEED="${4:-${SIFT_CHAOS_SEED:-1337}}"
mkdir -p "$WORK"

SESSIONS=16
SECONDS_PER_SESSION=12
MODELS=2
TRAIN_SECONDS=30
RATE=3            # time steps/s: the ~16 s stream outlives all 8 kills
SETTLE_MS=240000  # resume give-up budget: covers $KILLS retrain gaps

SERVE_PID=""
cleanup() { [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true; }
trap cleanup EXIT

start_serve() { # $1=sock $2=ckpt-dir $3=log $4=extra-flag...
  local sock="$1" ckpt="$2" log="$3"; shift 3
  "$SIFTCTL" serve --listen "unix:$sock" --models "$MODELS" \
    --train-seconds "$TRAIN_SECONDS" --workers 2 \
    --checkpoint-dir "$ckpt" --checkpoint-interval 100 \
    --stall-timeout-ms 10000 "$@" >>"$log.json" 2>>"$log" &
  SERVE_PID=$!
}

wait_sock() { # $1=sock $2=log
  for _ in $(seq 1 300); do
    [ -S "$1" ] && return 0
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      echo "FAIL: server exited during startup"; cat "$2"; exit 1
    fi
    sleep 0.2
  done
  echo "FAIL: socket never appeared"; cat "$2"; exit 1
}

drive() { # $1=sock $2=out extra: chaos flags
  local sock="$1" out="$2"; shift 2
  "$SIFTCTL" drive --connect "unix:$sock" --connections 4 \
    --users "$SESSIONS" --seconds "$SECONDS_PER_SESSION" --models "$MODELS" \
    --rate "$RATE" --settle-timeout-ms "$SETTLE_MS" "$@" >"$out"
}

echo "== control: uninterrupted serve + clean drive =="
CSOCK="$WORK/control.sock"
start_serve "$CSOCK" "$WORK/ckpt_control" "$WORK/control.log"
wait_sock "$CSOCK" "$WORK/control.log"
drive "$CSOCK" "$WORK/control_drive.out"
kill -TERM "$SERVE_PID"; wait "$SERVE_PID" || true; SERVE_PID=""
"$SIFTCTL" journal-dump "$WORK/ckpt_control" >"$WORK/control.journal"

echo "== chaos: $KILLS SIGKILLs under wire faults (seed $SEED) =="
KSOCK="$WORK/chaos.sock"
start_serve "$KSOCK" "$WORK/ckpt_chaos" "$WORK/chaos.log"
wait_sock "$KSOCK" "$WORK/chaos.log"
drive "$KSOCK" "$WORK/chaos_drive.out" --chaos-net "$SEED" &
DRIVE_PID=$!

# Stagger the kills across the paced stream; each relaunch recovers from
# the checkpoint dir and rebinds the same socket, and the drive's resuming
# senders are expected to ride straight through every boundary. LANDED
# counts the SIGKILLs that hit a live server while the drive was running.
LANDED=0
for k in $(seq 1 "$KILLS"); do
  sleep 1.2
  if ! kill -0 "$DRIVE_PID" 2>/dev/null; then
    echo "  drive finished early: $LANDED/$KILLS kills landed"
    break
  fi
  if kill -9 "$SERVE_PID" 2>/dev/null; then
    LANDED=$((LANDED + 1))
  fi
  wait "$SERVE_PID" 2>/dev/null || true
  rm -f "$KSOCK"
  echo "  kill $k/$KILLS: recovering..."
  start_serve "$KSOCK" "$WORK/ckpt_chaos" "$WORK/chaos.log" --recover
  wait_sock "$KSOCK" "$WORK/chaos.log"
done

if ! wait "$DRIVE_PID"; then
  echo "FAIL: chaos drive did not settle"; cat "$WORK/chaos_drive.out"; exit 1
fi
cat "$WORK/chaos_drive.out"
kill -TERM "$SERVE_PID"; wait "$SERVE_PID" || true; SERVE_PID=""
"$SIFTCTL" journal-dump "$WORK/ckpt_chaos" >"$WORK/chaos.journal"

echo "== diff chaos journal against control =="
if ! diff -u "$WORK/control.journal" "$WORK/chaos.journal" >"$WORK/journal.diff"; then
  echo "FAIL: verdict journals diverge after kill/recover matrix"
  head -40 "$WORK/journal.diff"
  exit 1
fi
RECORDS=$(wc -l <"$WORK/control.journal")
if [ "$RECORDS" -eq 0 ]; then
  echo "FAIL: empty control journal (nothing was actually checked)"
  exit 1
fi
if ! grep -q "reconnects=[1-9]" "$WORK/chaos_drive.out"; then
  echo "FAIL: chaos drive never reconnected (kills did not land mid-stream)"
  exit 1
fi
echo "OK: $RECORDS journal record(s) bit-identical across $LANDED/$KILLS kills"
