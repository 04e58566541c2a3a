#!/usr/bin/env bash
# End-to-end check of the `spherelok` console script and the package behind
# it.  Run it with `bash -eo pipefail`, so that any failing command or
# assertion fails the check:
#
#     python -m pip install . && bash -eo pipefail tools/console_script_check.sh
#
# It writes p.bin, bad.bin, v3.bin, err.txt, c.coeff, l.coeff, lf.coeff,
# h.coeff, kept.coeff, removed.coeff, f.txt and g.csv in the current
# directory.  To run it on a source tree without installing, put on PATH a
# `spherelok` script that runs `python -m spherelok.cli "$@"`, and export
# PYTHONPATH=src, for example from the root of the tree:
#
#     mkdir -p /tmp/bin && printf '#!/bin/sh\nexec python -m spherelok.cli "$@"\n' > /tmp/bin/spherelok
#     chmod +x /tmp/bin/spherelok
#     PATH=/tmp/bin:$PATH PYTHONPATH=$PWD/src bash -eo pipefail tools/console_script_check.sh
#
# A build's solve threads have all ended when it returns; the printed thread
# count is 1 where numpy's OpenBLAS thread-count functions were not found
# (numpy 1.24 names them openblas_*, numpy 2.x scipy_openblas_*).  A plan
# load checks at one BLAS thread, its check threads have all ended when it
# returns, and it restores the count.  `spectrum` prints as text lines the
# scalar fields of its JSON payload.  The package writes and reads a plan
# cache and takes coefficients through analyze and synthesize and back, with
# analyze --mode fast writing the same bytes as analyze, through two window
# filters, and onto a grid.  The upper-tail filter also runs markov_bound,
# which reuses the filter's analysis of the same field; its printed residual
# must not exceed its bound.  Basis function (k, i) = (-3, 2) reads block -3,
# which is block +3, and builds its full eigenvector matrix.  Blocks of size
# 1-3 go through numpy's svd.  `bench --blocks` times the fast pipeline,
# whose Chebyshev transforms run on numpy's FFT, and `bench` refuses a band
# with m > n (exit 2) before it times the others.  The plan file is format
# v4: after the magic line come n m and n flag words, then per k = n .. 0
# a record of 2 + c + c^2 words, k and N_k, the c = ceil(N_k / 2) kept
# eigenvalues and the c x c even rows E, row-major.  A copy of the plan
# with block 3's kept column 1 of E negated, and so its odd rows, breaks
# only the p_0 > 0 sign rule, and `spectrum` must refuse it (exit 4).  A
# copy whose magic line reads v3, the format that stored the odd rows too,
# is refused with the remedy, delete the file and rebuild it (exit 3).
# `selftest` also runs under python -O, which strips assert statements.

python -c "import threading, spherelok as s; [s.TransformPlan.build(n, m) for n, m in ((0, 0), (1, 0), (2, 2), (16, 4))]; assert threading.active_count() == 1, threading.enumerate(); print('solve threads:', s.jacobi_blocks.thread_count())"
spherelok selftest
spherelok plan --n 16 --m 4 --out p.bin
python -c "import threading, spherelok as s; get = (s.jacobi_blocks._blas_threads() or (lambda: None,))[0]; before = get(); s.load_plan('p.bin'); assert threading.active_count() == 1, threading.enumerate(); assert get() == before, (before, get())"
python -c "import json, subprocess as sp; run = lambda *a: sp.run(['spherelok', 'spectrum', '--plan', 'p.bin', *a], check=True, capture_output=True, text=True).stdout; p = json.loads(run('--json')); keys = ('n', 'm', 'dimension', 'count', 'sum_x', 'mean_x2', 'min', 'max', 'fraction_in_0_0.5'); assert run().splitlines() == [f'{k} = {p[k]}' for k in keys]"
python -c "import numpy as np, spherelok as s; s.save_coeffs('c.coeff', s.HarmonicCoeffs.random_unit(s.BandParams(16, 4), np.random.default_rng(0)))"
spherelok analyze --plan p.bin --in c.coeff --out l.coeff
spherelok analyze --mode fast --plan p.bin --in c.coeff --out lf.coeff
cmp l.coeff lf.coeff
spherelok synthesize --plan p.bin --in l.coeff --out h.coeff
python -c "import numpy as np, spherelok as s; a, b = s.load_coeffs('c.coeff'), s.load_coeffs('h.coeff'); assert np.abs(a.values - b.values).max() <= 1e-12"
spherelok filter --plan p.bin --in c.coeff --window "[0.5,1]" --out-kept kept.coeff --out-removed removed.coeff
python -c "import numpy as np, spherelok as s; a, b, c = (s.load_coeffs(f) for f in ('kept.coeff', 'removed.coeff', 'c.coeff')); assert np.abs(a.values + b.values - c.values).max() <= 1e-12"
spherelok filter --plan p.bin --in c.coeff --window "(0.5,1]" --out-kept kept.coeff --out-removed removed.coeff > f.txt
python -c "import re; a, b = map(float, re.search(r'residual (\S+) <= (\S+)', open('f.txt').read()).groups()); assert a <= b"
spherelok grid --plan p.bin --psi -3 2 --out g.csv
python -c "import numpy as np, spherelok as s; p = s.load_plan('p.bin'); f = s.evaluate_basis_on_grid(p.params, p.blocks, -3, 2, s.SphereGrid.for_degree(16)); g = np.loadtxt('g.csv', delimiter=',', skiprows=1); assert g.shape == (f.size, 4) and np.abs(g[:, 2] + 1j * g[:, 3] - f.ravel()).max() <= 1e-12"
spherelok bench --blocks 64,128 --json
rc=0; spherelok bench --n-list 16,4 --m 6 || rc=$?; test "$rc" -eq 2
python -c "import numpy as np, spherelok as s; p = s.BandParams(16, 4); raw = open('p.bin', 'rb').read(); w = np.frombuffer(raw[18:], '<f8').copy(); cs = lambda k: (p.block_size(k) + 1) // 2; c = cs(3); at = 2 + 16 + sum(2 + cs(k) + cs(k) ** 2 for k in range(16, 3, -1)) + 2 + c; w[at + 1 : at + c * c : c] *= -1; open('bad.bin', 'wb').write(raw[:18] + w.tobytes())"
rc=0; spherelok spectrum --plan bad.bin || rc=$?; test "$rc" -eq 4
python -c "raw = open('p.bin', 'rb').read(); assert raw[:18] == b'SPHERELOK-PLAN v4\n'; open('v3.bin', 'wb').write(b'SPHERELOK-PLAN v3\n' + raw[18:])"
rc=0; spherelok spectrum --plan v3.bin 2> err.txt || rc=$?; test "$rc" -eq 3; grep -q 'plan cache format v3 is no longer read; delete the file and rebuild it with `spherelok plan`' err.txt
python -O -m spherelok.cli selftest
