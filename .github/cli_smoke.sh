#!/usr/bin/env bash
# Console-script smoke test: run the tiltkit executable given as $1 through a
# 1 s simulate -> run -> eval chain with the 10 ms wb reference tuning, then
# calibrate and spectrum on the simulated log, in a fresh temporary
# directory outside the checkout.  simulate's log.csv must start with the
# 5-column header: it has no reference channel, so no ref_count column, and
# tune, which needs one, is not run.  run's estimate.csv must hold only
# t,phi_hat_deg, and the corrected stream and its motion terms only under
# --debug-intermediates; eval of it must exit 0, and so must eval against a
# truth.csv whose last, unscored column holds abc on one row, writing the
# same eval.txt; a truth.csv with a row one field short must exit 3.  A flag
# the command does not read, and the prefix of one it does, must be a usage
# error (exit 2).  A run whose
# estimates overflow to inf (alpha=1e300), a simulation whose sensor
# columns do (gyro_bias_dps=1e300) and a run whose motion terms do
# (gyro_bias_dps=1e300) must exit 4 and write nothing.  Last, a 2 ms
# simulate of 20,000 samples, about five 4,096-row blocks, so that each
# file's second half is formatted in a forked child: two runs must write
# the same log.csv and truth.csv, and run and eval must accept that log.
#
#   bash .github/cli_smoke.sh "$(command -v tiltkit)"
set -euo pipefail
tiltkit="$1"
cd "$(mktemp -d)"
printf 'dt_ms=10\nN_drive=2000\nduration_s=1\nseed=1\nvariant=wb\nalpha=0.0008\nbeta=0.0\n' > run.cfg
"$tiltkit" simulate --config run.cfg --out out
header="$(head -n 1 out/log.csv | tr -d '\r')"
if [ "$header" != "t,gyro_dps,acc_x_mps2,acc_y_mps2,enc_count" ]; then
  echo "simulate's log.csv starts with '$header', want the 5-column header"
  exit 1
fi
"$tiltkit" run --config run.cfg --out out --log out/log.csv
header="$(head -n 1 out/estimate.csv)"
if [ "$header" != "t,phi_hat_deg" ]; then
  echo "run's estimate.csv starts with '$header', want 't,phi_hat_deg'"
  exit 1
fi
"$tiltkit" run --config run.cfg --out debug --log out/log.csv --debug-intermediates
header="$(head -n 1 debug/estimate.csv)"
if [ "$header" != "t,phi_hat_deg,phi_bar_deg,rate_bar_dps,a_c,a_e,a_t,a_t_x,a_t_y" ]; then
  echo "run --debug-intermediates wrote '$header', want the corrected stream and its terms"
  exit 1
fi
code=0
"$tiltkit" eval --config run.cfg --out out --log out/estimate.csv --truth out/truth.csv || code=$?
if [ "$code" -ne 0 ]; then
  echo "eval of the smoke run's estimate.csv exited $code, want 0"
  exit 1
fi
sed '3s/,[^,]*\r$/,abc\r/' out/truth.csv > unscored.csv
if cmp -s out/truth.csv unscored.csv; then
  echo "no a_t_mps2 field of truth.csv was replaced"
  exit 1
fi
code=0
"$tiltkit" eval --config run.cfg --out unscored --log out/estimate.csv --truth unscored.csv || code=$?
if [ "$code" -ne 0 ] || ! cmp -s out/eval.txt unscored/eval.txt; then
  echo "eval against a truth.csv with abc in a_t_mps2 exited $code, want 0 and the clean eval.txt"
  exit 1
fi
sed '3s/,[^,]*\r$/\r/' out/truth.csv > short.csv
code=0
"$tiltkit" eval --config run.cfg --out short --log out/estimate.csv --truth short.csv || code=$?
if [ "$code" -ne 3 ]; then
  echo "eval against a truth.csv with a row one field short exited $code, want 3"
  exit 1
fi
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
sed 's/^alpha=.*/alpha=1e300/' run.cfg > diverging.cfg
code=0
"$tiltkit" run --config diverging.cfg --out diverging --log out/log.csv || code=$?
if [ "$code" -ne 4 ] || [ -e diverging/estimate.csv ]; then
  echo "run with alpha=1e300 exited $code, want 4 and no estimate.csv"
  exit 1
fi
printf 'gyro_bias_dps=1e300\n' | cat run.cfg - > overflowing.cfg
code=0
"$tiltkit" simulate --config overflowing.cfg --out overflowing || code=$?
if [ "$code" -ne 4 ] || [ -e overflowing ]; then
  echo "simulate with gyro_bias_dps=1e300 exited $code, want 4 and no output directory"
  exit 1
fi
code=0
"$tiltkit" run --config overflowing.cfg --out overflowing --log out/log.csv || code=$?
if [ "$code" -ne 4 ] || [ -e overflowing/estimate.csv ]; then
  echo "run with gyro_bias_dps=1e300 exited $code, want 4 and no estimate.csv"
  exit 1
fi
printf 'dt_ms=2\nN_drive=2000\nduration_s=40\nseed=1\nvariant=wb\nalpha=0.00185\nbeta=-0.00018\n' > long.cfg
"$tiltkit" simulate --config long.cfg --out long1
"$tiltkit" simulate --config long.cfg --out long2
rows="$(wc -l < long1/log.csv)"
if [ "$rows" -ne 20001 ]; then
  echo "the 2 ms simulate wrote $rows lines of log.csv, want a header and 20000 rows"
  exit 1
fi
if ! cmp long1/log.csv long2/log.csv || ! cmp long1/truth.csv long2/truth.csv; then
  echo "two 2 ms simulate runs wrote different files"
  exit 1
fi
"$tiltkit" run --config long.cfg --out long1 --log long1/log.csv
"$tiltkit" eval --config long.cfg --out long1 --log long1/estimate.csv --truth long1/truth.csv
