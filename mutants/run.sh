#!/usr/bin/env bash
# Runs the mutant catalogue: applies each patch named in mutants/CATALOGUE
# to a worktree of HEAD, builds the patched workspace's libraries and
# binaries, and runs the command on the patch's line, which must fail (the
# mutant is killed).
#
#   mutants/run.sh             every mutant in the catalogue
#   mutants/run.sh NAME.patch  the named ones
#
# Fails when a patch no longer applies, when a patched tree does not build
# (a build error never counts as a kill), or when a command passes (the
# mutant survived). Commit first: the worktree is HEAD, not the working
# tree. Builds go to $CARGO_TARGET_DIR, by default target/mutants, which
# one mutant's build reuses for the next.
set -euo pipefail

repo=$(git rev-parse --show-toplevel)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$repo/target/mutants}
tree=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
git -C "$repo" worktree add --quiet --detach "$tree" HEAD
trap 'git -C "$repo" worktree remove --force "$tree"' EXIT

ran=0
while read -r patch timeout command; do
    [[ -z $patch || $patch == \#* ]] && continue
    if (($# > 0)) && [[ " $* " != *" $patch "* ]]; then
        continue
    fi
    ran=$((ran + 1))
    git -C "$tree" reset --quiet --hard HEAD
    if ! git -C "$tree" apply "$repo/mutants/$patch"; then
        echo "$patch: no longer applies to HEAD; rebase it" >&2
        exit 1
    fi
    if ! (cd "$tree" && cargo build --release --quiet --workspace < /dev/null); then
        echo "$patch: the patched tree does not build" >&2
        exit 1
    fi
    start=$SECONDS
    status=0
    (cd "$tree" && timeout "$timeout" bash -c "$command") < /dev/null > "$tree/mutant.log" 2>&1 || status=$?
    case $status in
    0)
        tail -n 20 "$tree/mutant.log"
        echo "$patch: SURVIVED: \`$command\` passed" >&2
        exit 1
        ;;
    124) echo "$patch: killed, timed out after ${timeout} s" ;;
    *) echo "$patch: killed, exit $status after $((SECONDS - start)) s: $(tail -n 1 "$tree/mutant.log")" ;;
    esac
done < "$repo/mutants/CATALOGUE"

if ((ran == 0)); then
    echo "no mutant in mutants/CATALOGUE matches: $*" >&2
    exit 1
fi
echo "$ran mutant(s) killed"
