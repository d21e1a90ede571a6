// fp-reduction fixture: OpenMP reductions on floating-point variables
// combine per-thread partials in an unspecified order. flagged_sums seeds
// exactly two findings (a double '+' and a Real '*' over a multi-declarator
// statement); the integer twin (kmeans.cpp's counters), the max reduction,
// the pure simd reduction and the suppressed one stay silent or resolve.

namespace fx {

using Real = double;

double flagged_sums(const double* x, int n) {
  double sum = 0.0;
  Real scale = 1.0, prod = 1.0;
#pragma omp parallel for reduction(+ : sum) reduction(* : prod)
  for (int i = 0; i < n; ++i) {
    sum += x[i];       // finding at the directive: '+' on double 'sum'
    prod *= x[i];      // finding at the directive: '*' on Real 'prod'
  }
  return sum + prod * scale;
}

long long clean_integer_twin(const double* x, int n) {
  long long full_scans = 0;
  long long skips = 0;
#pragma omp parallel for schedule(static) reduction(+ : full_scans, skips)
  for (int i = 0; i < n; ++i) {
    if (x[i] > 0.0) {
      ++full_scans;
    } else {
      ++skips;
    }
  }
  return full_scans - skips;
}

double clean_max(const double* x, int n) {
  double best = 0.0;
  // max/min are exact in any order.
#pragma omp parallel for reduction(max : best)
  for (int i = 0; i < n; ++i) best = x[i] > best ? x[i] : best;
  return best;
}

double clean_simd(const double* x, int n) {
  double sum = 0.0;
  // Pure simd: the lane combine order is fixed by the compiled binary.
#pragma omp simd reduction(+ : sum)
  for (int i = 0; i < n; ++i) sum += x[i];
  return sum;
}

double suppressed_sum(const double* x, int n) {
  double total = 0.0;
  // lrt-analyze: allow(fp-reduction)
#pragma omp parallel for reduction(+ : total)
  for (int i = 0; i < n; ++i) total += x[i];
  return total;
}

}  // namespace fx
