// Fixture: seeded no-raw-openmp violation inside a kernel dir. The kernels
// fan out through the worker pool, so no directory is exempt.
void KernelPragmaLoop(double* x, int n) {
#pragma omp parallel for schedule(static)
  for (int i = 0; i < n; ++i) {
    x[i] += 1.0;
  }
}
