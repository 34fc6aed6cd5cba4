#!/usr/bin/env bash
# Verify the tree is ocamlformat-clean.
#
# The formatter version is pinned in .ocamlformat; when the binary is
# absent or a different version is installed, the check is skipped so
# plain builds never depend on having the formatter around — CI installs
# the pinned version and gets the real check.
set -euo pipefail

pinned=$(sed -n 's/^version *= *//p' .ocamlformat)

if ! command -v ocamlformat >/dev/null 2>&1; then
  echo "check_format: ocamlformat not installed; skipping (pinned ${pinned})"
  exit 0
fi

actual=$(ocamlformat --version)
if [ "${actual}" != "${pinned}" ]; then
  echo "check_format: ocamlformat ${actual} does not match pinned ${pinned}; skipping"
  exit 0
fi

status=0
while IFS= read -r -d '' f; do
  if ! ocamlformat --check "$f"; then
    echo "check_format: ${f} is not formatted" >&2
    status=1
  fi
done < <(find lib bin test examples \( -name '*.ml' -o -name '*.mli' \) -print0)

if [ "${status}" -ne 0 ]; then
  echo "check_format: run 'dune fmt' (or ocamlformat -i) and retry" >&2
fi
exit "${status}"
