#!/bin/sh
# coreab.sh — same-process A/B timing of the cycle loop against another
# revision.
#
#   scripts/coreab/coreab.sh [-p 'core iq rename'] REV SCRATCH [coreab flags]
#
# Copies this working tree into SCRATCH/tree, forks each package named by
# -p (default: core) as it stands at REV into internal/<pkg>b there, with
# its package clause and the forked packages' imports renamed and its tests
# dropped, and runs main.go against the fork. Fork every package the
# change touches below core (iq, rename), or the old core builds against
# the new ones. It prints one line a machine: the median ratio of new to
# old time over equal chunks of cycles, and its quartiles. Flags after
# SCRATCH go to the harness (-machines, -chunks).
# Run it with nothing else busy on the host; on 2 vCPUs the four default
# machines at the default 400 chunks take about 10 s, the build included.
set -eu
pkgs=core
if [ "${1:-}" = -p ]; then
	pkgs=$2
	shift 2
fi
if [ $# -lt 2 ]; then
	sed -n '2,/^set -eu$/{/^#/p;}' "$0" | sed 's/^# \{0,1\}//'
	exit 2
fi
rev=$1 scratch=$2
shift 2
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tree=$scratch/tree
rm -rf "$tree"
mkdir -p "$tree"
# The working tree as it stands, untracked files included, minus ignored
# ones. One tar reads the whole list, and the archive goes to a file so
# that a missing file (a tracked one deleted from the working tree) stops
# the script.
(cd "$repo" && git ls-files -z -co --exclude-standard | tar --null -T - -cf "$scratch/tree.tar")
tar -xf "$scratch/tree.tar" -C "$tree"
rm "$scratch/tree.tar"
for pkg in $pkgs; do
	git -C "$repo" archive "$rev" "internal/$pkg" | tar -xf - -C "$scratch"
	rm -rf "$tree/internal/${pkg}b"
	mv "$scratch/internal/$pkg" "$tree/internal/${pkg}b"
	rm -f "$tree/internal/${pkg}b"/*_test.go
	sed -i "s/^package $pkg\$/package ${pkg}b/" "$tree/internal/${pkg}b"/*.go
done
for pkg in $pkgs; do
	for fork in $pkgs; do
		sed -i "s#\"repro/internal/$pkg\"#$pkg \"repro/internal/${pkg}b\"#" "$tree/internal/${fork}b"/*.go
	done
done
mkdir -p "$tree/cmd/coreab"
sed '/^\/\/go:build ignore$/d' "$repo/scripts/coreab/main.go" > "$tree/cmd/coreab/main.go"
cd "$tree"
go build -o "$scratch/coreab" ./cmd/coreab
exec "$scratch/coreab" "$@"
