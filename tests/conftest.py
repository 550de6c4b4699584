import os

# The Monte Carlo hot loops are elementwise numpy (Szego's recursion), and
# LAPACK sees only small matrices: the zero counter's fallback draws, the
# eigenphase oracles and the float determinants.  BLAS threads cost more than
# they save on small matrices (measured 2x slower when eigendecompositions were
# the Monte Carlo hot loop) and compete with the library's chunk-level thread
# pool for the same cores.  Pin them before numpy loads.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
