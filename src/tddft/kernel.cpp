#include "tddft/kernel.hpp"

#include "common/error.hpp"
#include "common/omp.hpp"
#include "dft/xc.hpp"

namespace lrt::tddft {

HxcKernel::HxcKernel(const grid::RealSpaceGrid& grid,
                     const grid::GVectors& gvectors,
                     std::vector<Real> ground_density, bool include_xc)
    : nr_(grid.size()),
      dv_(grid.dv()),
      poisson_(fft::Fft3D(grid.shape()[0], grid.shape()[1], grid.shape()[2]),
               gvectors.g2_table()) {
  LRT_CHECK(static_cast<Index>(ground_density.size()) == nr_,
            "density size mismatch");
  if (include_xc) {
    fxc_ = dft::lda_fxc_array(ground_density);
  } else {
    fxc_.assign(static_cast<std::size_t>(nr_), Real{0});
  }
}

void HxcKernel::apply(la::RealConstView f, la::RealView out,
                      obs::WallProfiler* profiler) const {
  LRT_CHECK(f.rows() == nr_ && out.rows() == nr_ && f.cols() == out.cols(),
            "kernel apply shape mismatch");
  const Index k = f.cols();
  const Index pairs = (k + 1) / 2;
  const fft::Fft3D& fft = poisson_.fft();

  Timer fft_timer;
  [[maybe_unused]] const bool par = !in_omp_parallel() && pairs > 1;
#pragma omp parallel if (par)
  {
    std::vector<fft::Complex> z(static_cast<std::size_t>(nr_));
#pragma omp for schedule(static)
    for (Index pair = 0; pair < pairs; ++pair) {
      // z = f_j + i f_{j+1}; an odd last column goes alone.
      const Index j = 2 * pair;
      const bool two = j + 1 < k;
      for (Index i = 0; i < nr_; ++i) {
        const Real* row = f.row_ptr(i) + j;
        z[static_cast<std::size_t>(i)] =
            fft::Complex(row[0], two ? row[1] : Real{0});
      }
      fft.forward(z.data());
      poisson_.apply_kernel_g(z.data());
      fft.inverse(z.data());
      for (Index i = 0; i < nr_; ++i) {
        const Real* in = f.row_ptr(i) + j;
        Real* o = out.row_ptr(i) + j;
        const fft::Complex v = z[static_cast<std::size_t>(i)];
        const Real fxc = fxc_[static_cast<std::size_t>(i)];
        o[0] = v.real() + fxc * in[0];
        if (two) o[1] = v.imag() + fxc * in[1];
      }
    }
  }
  if (profiler) profiler->add("fft", fft_timer.seconds());
}

}  // namespace lrt::tddft
