#!/bin/sh
# The table commands run by both CI table steps, at native and at baseline
# SIMD dispatch; each must exit 0. They reach the number kernel's scaling
# and Dekker products, its exponent cells in the small-rapidity tables, a
# short table and a one-record tail block written by Python's formatter
# alone, grid axes of one value and a square grid.
set -e
spinboost scan-eta --xi-steps 300 --theta-steps 300 > /dev/null
spinboost scan-eta --xi-steps 300 --theta-steps 300 --format json > /dev/null
spinboost eta-max --xi-steps 20000 --format json > /dev/null
spinboost eta-max --xi-max 1490 --xi-steps 5001 > /dev/null
spinboost scan-eta --xi-max 1000 --xi-steps 3 --theta-steps 3 > /dev/null
spinboost scan-eta --xi-max 1000 --xi-steps 3 --theta-steps 3 --format json > /dev/null
spinboost eta-max --xi-max 1e-3 --xi-steps 20000 --format json > /dev/null
spinboost scan-eta --xi-max 0.05 --xi-steps 300 --theta-steps 300 > /dev/null
spinboost eta-max --xi-max 1e-07 --xi-steps 11 --format json > /dev/null
spinboost eta-max --xi-steps 8193 --format json > /dev/null
spinboost offdiag --points 20000 --format json > /dev/null
spinboost scan-eta --xi-steps 1 --theta-steps 9000 > /dev/null
spinboost scan-eta --xi-steps 9000 --theta-steps 1 > /dev/null
