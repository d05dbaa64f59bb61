// Fixture: seeded no-raw-openmp violation (a pragma outside the kernel
// dirs).
void RoguePragmaLoop(double* x, int n) {
#pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    x[i] *= 2.0;
  }
}
