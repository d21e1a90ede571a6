#include "fft/poisson.hpp"

#include "common/error.hpp"

namespace lrt::fft {

PoissonSolver::PoissonSolver(Fft3D fft, const std::vector<Real>& g2)
    : fft_(std::move(fft)), kernel_(g2.size(), Real{0}) {
  LRT_CHECK(static_cast<Index>(g2.size()) == fft_.size(),
            "g2 table size " << g2.size() << " != grid size " << fft_.size());
  for (std::size_t i = 1; i < g2.size(); ++i) {
    if (g2[i] > Real{0}) kernel_[i] = constants::kFourPi / g2[i];
  }
}

void PoissonSolver::apply_kernel_g(Complex* rho_g) const {
  const Index n = fft_.size();
  for (Index i = 0; i < n; ++i) {
    rho_g[i] *= kernel_[static_cast<std::size_t>(i)];
  }
}

void PoissonSolver::solve(const Real* density, Real* potential) const {
  std::vector<Complex> work(static_cast<std::size_t>(fft_.size()));
  fft_.forward(density, work.data());
  apply_kernel_g(work.data());
  fft_.inverse_real(work.data(), potential);
}

Real PoissonSolver::energy(const Real* density, const Real* potential,
                           Real dv) const {
  const Index n = fft_.size();
  Real sum = 0.0;
  for (Index i = 0; i < n; ++i) sum += density[i] * potential[i];
  return Real{0.5} * sum * dv;
}

}  // namespace lrt::fft
