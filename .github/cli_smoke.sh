#!/usr/bin/env bash
# Console-script smoke test: run the tiltkit executable given as $1 through a
# 1 s simulate -> run -> eval chain with the 10 ms wb reference tuning, then
# calibrate and spectrum on the simulated log, in a fresh temporary
# directory outside the checkout.  tune needs a ref_count column, which
# simulate does not write.  A flag the command does not read, and the prefix
# of one it does, must be a usage error (exit 2).
#
#   bash .github/cli_smoke.sh "$(command -v tiltkit)"
set -euo pipefail
tiltkit="$1"
cd "$(mktemp -d)"
printf 'dt_ms=10\nN_drive=2000\nduration_s=1\nseed=1\nvariant=wb\nalpha=0.0008\nbeta=0.0\n' > run.cfg
"$tiltkit" simulate --config run.cfg --out out
"$tiltkit" run --config run.cfg --out out --log out/log.csv
"$tiltkit" eval --config run.cfg --out out --log out/estimate.csv --truth out/truth.csv
"$tiltkit" calibrate --config run.cfg --out out --log out/log.csv
"$tiltkit" spectrum --config run.cfg --out out --log out/log.csv --channel gyro_dps
code=0
"$tiltkit" simulate --config run.cfg --out refused --log out/log.csv || code=$?
if [ "$code" -ne 2 ] || [ -e refused ]; then
  echo "simulate --log exited $code, want the usage error 2 and no output directory"
  exit 1
fi
code=0
"$tiltkit" simulate --config run.cfg --out abbreviated --se 3 || code=$?
if [ "$code" -ne 2 ] || [ -e abbreviated ]; then
  echo "simulate --se exited $code, want the usage error 2 and no output directory"
  exit 1
fi
