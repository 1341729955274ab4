#!/usr/bin/env bash
# End-to-end smoke of the three tools on tiny instances:
#   tests/tools_smoke.sh BIN_DIR
# Pins the exit codes and flag errors of distsplit_cli run/submit,
# distsplit_rank and distsplit_serve, that one-shot and fleet runs print the
# same output digest, that --metrics/--trace files are written, and one
# serve + submit round trip ending in a SIGTERM drain. Works in a fresh
# temporary directory and binds only kernel-assigned ports, so parallel
# ctest runs cannot collide.
set -u

bin=$(cd "$1" && pwd)
cli=$bin/distsplit_cli
rank=$bin/distsplit_rank
serve=$bin/distsplit_serve
work=$(mktemp -d)
daemon_pid=""
cleanup() {
  if [ -n "$daemon_pid" ]; then kill -KILL "$daemon_pid" 2>/dev/null; fi
  rm -rf "$work"
}
trap cleanup EXIT
cd "$work" || exit 1

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# expect CODE TEXT CMD...: CMD exits with CODE and prints TEXT (stdout or
# stderr) somewhere.
expect() {
  local code=$1 text=$2
  shift 2
  "$@" > out.txt 2>&1
  local rc=$?
  [ "$rc" -eq "$code" ] || fail "$* exited $rc, want $code: $(cat out.txt)"
  grep -qF -- "$text" out.txt || fail "$*: no '$text' in: $(cat out.txt)"
}

torus=--gen=torus:w=8,h=8
bireg=--gen=biregular:nu=16,nv=32,delta=4
mis_digest=d76fdcad9ab55f43

# ---- exit codes and did-you-mean: CLI usage errors are 1, execution
# errors 2; submit, rank and serve report every failure as 2.
expect 1 "did you mean '--http-port'?" \
  "$cli" run --algo=mis "$torus" --htp-port=0
expect 1 "did you mean 'mis'?" "$cli" run --algo=miss "$torus"
expect 2 "cannot open input file" "$cli" run --algo=mis --input=missing.txt
head -c 100 /dev/zero > bad.dsg
expect 1 "dsg format error" "$cli" run --algo=mis --graph=bad.dsg
expect 2 "did you mean '--port'?" "$cli" submit --prt=1 --algo=mis
expect 2 "did you mean '--seed'?" "$rank" --local=2 --algo=mis "$torus" --sed=1
expect 2 "per-run parameters travel with each submission" \
  "$serve" --local=1 "$torus" --quue-cap=3
expect 2 "usage: distsplit_rank" "$rank" "$torus"

# ---- range checks: out-of-range values fail and name the flag.
expect 1 "--http-port=65536" "$cli" run --algo=mis "$torus" --http-port=65536
expect 1 "--http-port=-1" "$cli" run --algo=mis "$torus" --http-port=-1
expect 1 "--event-cap=-1" "$cli" run --algo=mis "$torus" --event-cap=-1
expect 2 "--http-port=65535" \
  "$rank" --local=2 --algo=mis "$torus" --http-port=65535
expect 2 "--port=65536" "$serve" --local=1 "$torus" --port=65536
expect 2 "--queue-cap=-1" "$serve" --local=1 "$torus" --queue-cap=-1

# ---- one digest across tools, and the observability files of both.
expect 0 "output-digest: $mis_digest" \
  "$cli" run --algo=mis "$torus" --metrics=cli_m.json --trace=cli_t.json
expect 0 "output-digest=$mis_digest" "$rank" --local=2 --algo=mis "$torus"
[ "$(grep -c "output-digest=$mis_digest" out.txt)" -eq 2 ] ||
  fail "not every rank printed $mis_digest: $(cat out.txt)"
expect 0 "output-digest=$mis_digest" "$rank" --local=2 --algo=mis "$torus" \
  --materialize --metrics=rank_m.json --trace=rank_t.json
for f in cli_m.json cli_t.json rank_m.json rank_t.json; do
  [ -s "$f" ] || fail "$f was not written"
  if command -v python3 > /dev/null; then
    python3 -m json.tool "$f" > /dev/null || fail "$f is not valid JSON"
  fi
done
# A bipartite spec through the loader's split recovery, both tools.
expect 0 "output-digest: " "$cli" run --algo=split "$bireg"
split_digest=$(sed -n 's/^output-digest: //p' out.txt)
expect 0 "output-digest=$split_digest" \
  "$rank" --local=2 --algo=split "$bireg" --materialize

# ---- serve + submit round trip, then a SIGTERM drain.
"$serve" --local=1 "$torus" --port=0 > daemon.txt 2>&1 &
daemon_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^serve: listening on port //p' daemon.txt)
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || fail "daemon never listened: $(cat daemon.txt)"
expect 0 "output-digest: $mis_digest" \
  "$cli" submit --port="$port" --algo=mis --seed=1
kill -TERM "$daemon_pid"
# Bounded: a daemon that ignores the signal is killed by the trap.
for _ in $(seq 1 100); do
  grep -qF "serve: exiting" daemon.txt && break
  sleep 0.1
done
grep -qF "serve: exiting" daemon.txt || fail "no drain: $(cat daemon.txt)"
wait "$daemon_pid"
rc=$?
daemon_pid=""
[ "$rc" -eq 0 ] || fail "daemon exited $rc: $(cat daemon.txt)"
grep -qF "1 served" daemon.txt || fail "no '1 served' in: $(cat daemon.txt)"

echo "tools smoke: OK"
