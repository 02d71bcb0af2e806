#!/usr/bin/env bash
# check_links.sh gates the documentation front door: every relative
# markdown link in the given files (default: the curated docs set) must
# point at a file or directory that exists in the repo. External links
# (http/https/mailto) and pure in-page anchors are skipped; a `path#anchor`
# link is checked for the path part only. A doc that drifts out of sync
# with a rename would otherwise rot silently while CI stays green.
#
# Usage: scripts/check_links.sh [file.md ...]
set -euo pipefail
cd "$(dirname "$0")/.."

files=("$@")
if [ ${#files[@]} -eq 0 ]; then
  files=(README.md ROADMAP.md cmd/README.md cmd/rlsd/README.md internal/service/README.md internal/persist/README.md rlsbench/README.md)
fi

fail=0
for f in "${files[@]}"; do
  if [ ! -f "$f" ]; then
    echo "check_links.sh: doc $f does not exist" >&2
    fail=1
    continue
  fi
  dir=$(dirname "$f")
  # Inline markdown links: [text](target) or [text](target "title"),
  # with fenced code blocks filtered out first (a `](...)` inside one is
  # not a link). Reference-style definitions ([id]: target) are rare
  # here and external; inline covers our docs.
  while IFS= read -r target; do
    target=${target%% \"*} # strip an optional "title"
    target=${target%% \'*}
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path=${target%%#*}
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "check_links.sh: $f links to missing $path" >&2
      fail=1
    fi
  done < <(awk '/^(```|~~~)/ { fence = !fence; next } !fence' "$f" \
    | grep -o '](\([^)]*\))' | sed 's/^](//; s/)$//' || true)
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "all relative links resolve in: ${files[*]}"
