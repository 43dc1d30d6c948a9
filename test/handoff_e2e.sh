#!/bin/sh
# The daemon -> cspm_check handoff, end to end: a check job the daemon is
# running when SIGTERM arrives leaves its cspm-checkpoint/1 file in
# --state-dir, and cspm_check --resume continues it to exit 0 with the
# report an uninterrupted run gives, byte for byte once the wall-clock
# timing fields are stripped.
set -e
checkd="$1"
check="$2"
fixture="$3"

# dune hands us paths relative to the build directory; make them
# absolute, then do all the work in a throwaway directory.
case "$checkd" in /*) ;; *) checkd="$(pwd)/$checkd" ;; esac
case "$check" in /*) ;; *) check="$(pwd)/$check" ;; esac
case "$fixture" in /*) ;; *) fixture="$(pwd)/$fixture" ;; esac
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

strip_timing() {
  sed -E 's/"wall_s":[0-9.eE+-]+,//g;
          s/"states_per_sec":[0-9.eE+-]+,//g;
          s/,"par_speedup":[0-9.eE+-]+//g' "$1"
}

# Reference: the uninterrupted run, on the raw engine whose multi-second
# search the SIGTERM must land in.
"$check" --format json --reductions none -o full.json "$fixture"

# The daemon runs the same check as job "s"; SIGTERM lands mid-search.
mkdir state
printf '{"op":"submit","id":"s","path":"%s","reductions":"none"}\n' \
  "$fixture" > requests.ndjson
"$checkd" --state-dir state < requests.ndjson > events.ndjson &
pid=$!
sleep 0.4
kill -TERM "$pid" 2>/dev/null || true
wait "$pid" || true

if ! grep -q '"interrupted":true' events.ndjson; then
  echo "the daemon's job was not interrupted:" >&2
  cat events.ndjson >&2
  exit 1
fi
if [ ! -f state/s.ck.json ]; then
  echo "the daemon left no checkpoint in its state directory" >&2
  exit 1
fi

set +e
"$check" --format json --reductions none -o resumed.json \
  --resume state/s.ck.json "$fixture"
code=$?
set -e
if [ "$code" -ne 0 ]; then
  echo "cspm_check --resume of the daemon's checkpoint exited $code, want 0" >&2
  exit 1
fi

strip_timing full.json > full.norm
strip_timing resumed.json > resumed.norm
if ! cmp -s full.norm resumed.norm; then
  echo "resumed report differs from the uninterrupted run:" >&2
  diff full.norm resumed.norm >&2 || true
  exit 1
fi
echo ok
