#!/usr/bin/env bash
# Print the canonical outputs of a fixed list of rdmap CLI commands.
#
# Usage: .github/canonical_outputs.sh SRC_DIR
#
# SRC_DIR is the directory that holds the rdmap package (a checkout's src/).
# For each command, and then for each demo of the same checkout
# (SRC_DIR/../demos), the script prints a header line, the stdout and the
# exit code; stderr is dropped.  Two checkouts that print the same bytes
# here agree on every canonical output the list covers.  The bytes do not
# depend on the BLAS thread count (CI compares one thread with two; the two
# commands whose eigensolves would are pinned to one thread), but checkouts
# whose solver still summed through threaded BLAS do: compare against those
# at OPENBLAS_NUM_THREADS=1.
set -u

if [ $# -ne 1 ] || [ ! -d "$1/rdmap" ]; then
    echo "usage: $0 SRC_DIR (the directory that holds the rdmap package)" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
python=${PYTHON:-python3}

kesten='{"group": {"kind": "free", "rank": 2}, "terms": [
  {"elem": "a", "re": 1.0}, {"elem": "A", "re": 1.0},
  {"elem": "b", "re": 1.0}, {"elem": "B", "re": 1.0}]}'
z2='{"group": {"kind": "free-abelian", "rank": 2}, "terms": [
  {"elem": [1, 0], "re": 1.0}, {"elem": [-1, 0], "re": 1.0},
  {"elem": [0, 1], "re": 1.0}, {"elem": [0, -1], "re": 1.0}]}'
cyclic='{"group": {"kind": "cyclic", "order": 4001}, "terms": [
  {"elem": 1, "re": 1.0}, {"elem": 4000, "re": 1.0}, {"elem": 7, "im": 0.5}]}'
cyclic2000='{"group": {"kind": "cyclic", "order": 2000}, "terms": [
  {"elem": 1, "re": 1.0}, {"elem": 1999, "re": 1.0}, {"elem": 7, "im": 0.5}]}'
# real coefficients: a covering cyclic ball, solved on its complex top
# character, and a table-regime ball, iterated in float64
cyclic2000real='{"group": {"kind": "cyclic", "order": 2000}, "terms": [
  {"elem": 1, "re": 1.0}, {"elem": 1999, "re": 1.0}]}'
free2complex='{"group": {"kind": "free", "rank": 2}, "terms": [
  {"elem": "a", "re": 1.0, "im": 0.5}, {"elem": "bA", "re": -0.25, "im": 1.0},
  {"elem": "B", "im": -0.75}]}'
# elements written in forms that Group.parse normalizes: integral-float
# coordinates, and residues outside [0, m)
z2float='{"group": {"kind": "free-abelian", "rank": 2}, "terms": [
  {"elem": [1.0, 0], "re": 1.0}, {"elem": [-1, 0.0], "re": 1.0},
  {"elem": [0.0, 1.0], "re": 0.5}, {"elem": [0, -1], "re": 0.5},
  {"elem": [2.0, -1.0], "im": 0.25}]}'
cyclicwrap='{"group": {"kind": "cyclic", "order": 101}, "terms": [
  {"elem": -1, "re": 1.0}, {"elem": 102, "re": 1.0}, {"elem": 208, "im": 0.5},
  {"elem": -300, "re": -0.25}]}'
# a point mass whose defect rows, phi(0) c - c, cancel when formed by subtraction
z1point='{"group": {"kind": "free-abelian", "rank": 1}, "terms": [
  {"elem": [0], "re": 0.1}]}'
# coefficients whose defect rows, (phi - 1) c, are subnormal
free2subnormal='{"group": {"kind": "free", "rank": 2}, "terms": [
  {"elem": "a", "im": 5e-323}, {"elem": "bA", "re": 5e-324}]}'
# a free(2) element whose compression at radius 4 (m = 161) has relative top
# gap 1.6e-4: the 19th draw of random_element(FreeGroup(2), 3,
# default_rng(2176752833)), a sample of the bench sweep's rd_free2_4 block
free2clustered='{"group": {"kind": "free", "rank": 2}, "terms": [
  {"elem": "b", "re": -0.09261296645224551, "im": -0.6463123911330829},
  {"elem": "AbA", "re": 0.7249905775217321, "im": -1.0634056228676427},
  {"elem": "baB", "re": 0.252139319397802, "im": -0.32423617692052786},
  {"elem": "bAA", "re": -0.9680930672169847, "im": 0.38031829199437744},
  {"elem": "Bab", "re": -0.945836047621734, "im": -1.9874055779379716}]}'
# the indicator of the free(2) sphere of radius 2: nonnegative and Hermitian,
# so at radius 8 its CSR products share one matrix
sphere2='{"group": {"kind": "free", "rank": 2}, "terms": [
  {"elem": "aa", "re": 1.0}, {"elem": "ab", "re": 1.0}, {"elem": "aB", "re": 1.0},
  {"elem": "AA", "re": 1.0}, {"elem": "Ab", "re": 1.0}, {"elem": "AB", "re": 1.0},
  {"elem": "ba", "re": 1.0}, {"elem": "bA", "re": 1.0}, {"elem": "bb", "re": 1.0},
  {"elem": "Ba", "re": 1.0}, {"elem": "BA", "re": 1.0}, {"elem": "BB", "re": 1.0}]}'
counterexample='{"entries": [[0, 10, 1], [10, 0, 1], [1, 1, 0]]}'
# lattice elements whose translation rows are located by whole-row byte keys:
# a complex one on Z^3, and one on Z^40, whose rows are 320 bytes long
z3complex='{"group": {"kind": "free-abelian", "rank": 3}, "terms": [
  {"elem": [1, 0, 0], "re": 1.0}, {"elem": [0, -1, 0], "im": 0.5},
  {"elem": [0, 1, -1], "re": -0.25, "im": 0.75}]}'
z40='{"group": {"kind": "free-abelian", "rank": 40}, "terms": [
  {"elem": [1'"$(printf ', 0%.0s' {1..39})"'], "re": 1.0},
  {"elem": ['"$(printf '0, %.0s' {1..39})"'-1], "re": 0.5, "im": -0.5}]}'

run() {
    echo "== rdmap $*"
    PYTHONPATH="$src" "$python" -m rdmap.cli "$@" 2>/dev/null
    echo "== exit $?"
}

run norm --element-json "$kesten" --radius 6
run norm --element-json "$kesten" --radius 8
run norm --element-json "$z2" --radius 40
run norm --element-json "$cyclic" --radius 2000
run norm --element-json "$cyclic" --radius 1000
run norm --element-json "$cyclic2000" --radius 1000
run map-converge --element-json "$kesten" --epsilon 0.3
run map-converge --element-json "$kesten" --epsilon 0.3 --format csv
run rd-sample --group free:2 --count 200 --seed 42
run rd-sample --group free-abelian:1 --count 200 --seed 42
run rd-sample --group free:2 --count 50 --seed 1 --C 0.2
run check-cn --group free:2 --radius 3
run check-cn --kernel-json "$counterexample"
run check-pd --group free-abelian:2 --radius 4
run norm --element-json "$free2complex" --radius 8 --max-iters 100
run norm --element-json "$kesten" --radius 6 --seed 3
run norm --element-json "$z2float" --radius 10
run norm --element-json "$cyclicwrap" --radius 40
run map-converge --element-json "$z1point" --epsilon 0.3 --format csv
run map-converge --element-json "$free2complex" --epsilon 0.3 --format csv
run map-converge --element-json "$free2subnormal" --epsilon 0.3 --format csv
run norm --element-json "$cyclic2000real" --radius 1000
run norm --element-json "$z2" --radius 20
run norm --element-json "$free2clustered" --radius 4
run norm --element-json "$sphere2" --radius 8
# a nonnegative compression starts from the positive unit vector, so the seed
# does not reach it: the same bracket as --seed 0 above
run norm --element-json "$kesten" --radius 8 --seed 7
# the m = 485 length and heat kernels that the bench's kernels workload times,
# at one BLAS thread as the bench runs them: eigvalsh of a matrix this large
# reduces through threaded BLAS, so its last digits follow the thread count
OPENBLAS_NUM_THREADS=1 run check-cn --group free:2 --radius 5
OPENBLAS_NUM_THREADS=1 run check-pd --group free:2 --radius 5
# counts past rd_sample_report's chunk of 256 samples, drawn, scored and
# pruned one chunk at a time
run rd-sample --group free:2 --count 600 --seed 7
run rd-sample --group free-abelian:2 --count 300 --seed 3
# grids whose later rows read the translation rows the first row left on the
# ball: a free(2) ball of CSR products and a lattice ball
run map-converge --element-json "$kesten" --epsilon 0.3 --radius 8 --format csv
run map-converge --element-json "$z2" --epsilon 0.3 --radius 20 --format csv
# table-regime compressions on Z^3 at radius 6 (m = 377) and Z^40 at radius 1
# (m = 81)
run norm --element-json "$z3complex" --radius 6
run norm --element-json "$z40" --radius 1

for demo in "$src"/../demos/*.py; do
    echo "== demo $(basename "$demo")"
    PYTHONPATH="$src" "$python" "$demo" 2>/dev/null
    echo "== exit $?"
done
