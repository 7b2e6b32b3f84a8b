#!/usr/bin/env bash
# Builds msrabench from source into .bench_build/ (once per checkout, or
# when a Go file changed) and runs it.  Everything go writes — build
# cache, module cache, telemetry — is kept under .bench_build/ so the
# benchmark reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$PWD/.bench_build"
bin="$out/msrabench"
if [ ! -f "$root/go.mod" ]; then
	echo "msrabench: no go.mod in $root: there is no repository here to measure" >&2
	exit 2
fi
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	go build -C "$here" -o "$bin" . >&2
fi
exec "$bin" "$@"
