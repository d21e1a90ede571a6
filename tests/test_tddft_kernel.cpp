// f_Hxc kernel application tests, including the paired transform (two
// real columns per complex FFT) against the per-column Poisson solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "dft/xc.hpp"
#include "tddft/kernel.hpp"

namespace lrt::tddft {
namespace {

struct KernelFixture {
  grid::RealSpaceGrid grid{grid::UnitCell::cubic(8.0), {10, 10, 10}};
  grid::GVectors gvectors{grid};
  std::vector<Real> density;

  KernelFixture() {
    density.assign(static_cast<std::size_t>(grid.size()), 0.0);
    for (Index i = 0; i < grid.size(); ++i) {
      const grid::Vec3 r = grid.position(i);
      const grid::Vec3 d = grid.cell().minimum_image({4, 4, 4}, r);
      density[static_cast<std::size_t>(i)] =
          0.3 * std::exp(-grid::norm2(d) / 3.0) + 0.01;
    }
  }
};

TEST(HxcKernel, HartreeOnlyMatchesPoissonSolve) {
  KernelFixture f;
  const HxcKernel kernel(f.grid, f.gvectors, f.density,
                         /*include_xc=*/false);
  // Apply to one test column.
  la::RealMatrix in(f.grid.size(), 1);
  for (Index i = 0; i < f.grid.size(); ++i) {
    in(i, 0) = f.density[static_cast<std::size_t>(i)];
  }
  la::RealMatrix out(f.grid.size(), 1);
  kernel.apply(in.view(), out.view());

  const fft::PoissonSolver poisson(
      fft::Fft3D(f.grid.shape()[0], f.grid.shape()[1], f.grid.shape()[2]),
      f.gvectors.g2_table());
  std::vector<Real> expected(static_cast<std::size_t>(f.grid.size()));
  poisson.solve(f.density.data(), expected.data());
  for (Index i = 0; i < f.grid.size(); i += 37) {
    EXPECT_NEAR(out(i, 0), expected[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(HxcKernel, XcPartIsDiagonalMultiply) {
  KernelFixture f;
  const HxcKernel with_xc(f.grid, f.gvectors, f.density, true);
  const HxcKernel without(f.grid, f.gvectors, f.density, false);

  Rng rng(1);
  la::RealMatrix in = la::RealMatrix::random_normal(f.grid.size(), 2, rng);
  la::RealMatrix out1(f.grid.size(), 2), out2(f.grid.size(), 2);
  with_xc.apply(in.view(), out1.view());
  without.apply(in.view(), out2.view());

  for (Index i = 0; i < f.grid.size(); i += 53) {
    for (Index j = 0; j < 2; ++j) {
      const Real fxc = dft::lda_fxc(f.density[static_cast<std::size_t>(i)]);
      EXPECT_NEAR(out1(i, j) - out2(i, j), fxc * in(i, j), 1e-10);
    }
  }
}

TEST(HxcKernel, OperatorIsSymmetricUnderGridInnerProduct) {
  // <f, K g> == <K f, g> — required for a symmetric Casida matrix.
  KernelFixture f;
  const HxcKernel kernel(f.grid, f.gvectors, f.density, true);
  Rng rng(2);
  la::RealMatrix a = la::RealMatrix::random_normal(f.grid.size(), 1, rng);
  la::RealMatrix b = la::RealMatrix::random_normal(f.grid.size(), 1, rng);
  la::RealMatrix ka(f.grid.size(), 1), kb(f.grid.size(), 1);
  kernel.apply(a.view(), ka.view());
  kernel.apply(b.view(), kb.view());
  Real lhs = 0, rhs = 0;
  for (Index i = 0; i < f.grid.size(); ++i) {
    lhs += a(i, 0) * kb(i, 0);
    rhs += ka(i, 0) * b(i, 0);
  }
  EXPECT_NEAR(lhs, rhs, 1e-8 * (std::abs(lhs) + 1));
}

TEST(HxcKernel, ProfilerReceivesFftPhase) {
  KernelFixture f;
  const HxcKernel kernel(f.grid, f.gvectors, f.density, true);
  la::RealMatrix in(f.grid.size(), 1, 1.0);
  la::RealMatrix out(f.grid.size(), 1);
  obs::WallProfiler profiler;
  kernel.apply(in.view(), out.view(), &profiler);
  EXPECT_GT(profiler.total("fft"), 0.0);
}

/// Smooth positive density on an arbitrary grid (the ALDA kernel needs
/// n > 0 everywhere).
std::vector<Real> smooth_density(const grid::RealSpaceGrid& grid) {
  std::vector<Real> density(static_cast<std::size_t>(grid.size()));
  const grid::Vec3 center = {grid.cell().length(0) / 2,
                             grid.cell().length(1) / 2,
                             grid.cell().length(2) / 2};
  for (Index i = 0; i < grid.size(); ++i) {
    const grid::Vec3 d = grid.cell().minimum_image(center, grid.position(i));
    density[static_cast<std::size_t>(i)] =
        0.3 * std::exp(-grid::norm2(d) / 3.0) + 0.01;
  }
  return density;
}

// The pairing z = f_j + i f_{j+1} is exact only because 4π/|G|² takes the
// same value at G and -G; the G table must be bitwise even, including at
// the Nyquist planes of even axes.
TEST(HxcKernel, PairingReliesOnG2TableBitwiseEvenInG) {
  for (const std::array<Index, 3> shape :
       {std::array<Index, 3>{14, 14, 14}, std::array<Index, 3>{16, 16, 16},
        std::array<Index, 3>{12, 10, 21}}) {
    const grid::RealSpaceGrid grid(grid::UnitCell({7.3, 6.1, 9.7}), shape);
    const grid::GVectors gvectors(grid);
    const std::vector<Real>& g2 = gvectors.g2_table();
    const Index n0 = shape[0], n1 = shape[1], n2 = shape[2];
    for (Index i0 = 0; i0 < n0; ++i0) {
      for (Index i1 = 0; i1 < n1; ++i1) {
        for (Index i2 = 0; i2 < n2; ++i2) {
          const Index at = (i0 * n1 + i1) * n2 + i2;
          const Index neg = (((n0 - i0) % n0) * n1 + (n1 - i1) % n1) * n2 +
                            (n2 - i2) % n2;
          ASSERT_EQ(g2[static_cast<std::size_t>(at)],
                    g2[static_cast<std::size_t>(neg)])
              << n0 << "x" << n1 << "x" << n2 << " at " << at;
        }
      }
    }
  }
}

// Paired apply against one Poisson solve per column plus the diagonal
// f_xc term, for an even, a two-column and an odd column count, on the
// Si27* 14³ grid shape and on a non-cubic grid with a Bluestein axis.
TEST(HxcKernel, PairedApplyMatchesPerColumnPoissonSolve) {
  struct Case {
    grid::UnitCell cell;
    std::array<Index, 3> shape;
  };
  for (const Case& c :
       {Case{grid::UnitCell::cubic(10.26), {14, 14, 14}},
        Case{grid::UnitCell({7.3, 6.1, 9.7}), {12, 10, 13}}}) {
    const grid::RealSpaceGrid grid(c.cell, c.shape);
    const grid::GVectors gvectors(grid);
    const HxcKernel kernel(grid, gvectors, smooth_density(grid), true);
    const fft::PoissonSolver poisson(
        fft::Fft3D(c.shape[0], c.shape[1], c.shape[2]),
        gvectors.g2_table());
    const Index nr = grid.size();
    for (const Index k : {1, 2, 7}) {
      Rng rng(static_cast<unsigned>(k + nr));
      const la::RealMatrix in = la::RealMatrix::random_normal(nr, k, rng);
      la::RealMatrix out(nr, k);
      kernel.apply(in.view(), out.view());

      std::vector<Real> column(static_cast<std::size_t>(nr));
      std::vector<Real> hartree(static_cast<std::size_t>(nr));
      for (Index j = 0; j < k; ++j) {
        for (Index i = 0; i < nr; ++i) {
          column[static_cast<std::size_t>(i)] = in(i, j);
        }
        poisson.solve(column.data(), hartree.data());
        Real err = 0, scale = 0;
        for (Index i = 0; i < nr; ++i) {
          const Real want = hartree[static_cast<std::size_t>(i)] +
                            kernel.fxc()[static_cast<std::size_t>(i)] *
                                in(i, j);
          err = std::max(err, std::abs(out(i, j) - want));
          scale = std::max(scale, std::abs(want));
        }
        EXPECT_LE(err, 1e-13 * scale)
            << c.shape[0] << "x" << c.shape[1] << "x" << c.shape[2]
            << " k=" << k << " column " << j;
      }
    }
  }
}

// Each pair's result depends only on its two columns, so the output must
// not change with the OpenMP team size.
TEST(HxcKernel, PairedApplyIsBitwiseAcrossThreadCounts) {
  const grid::RealSpaceGrid grid(grid::UnitCell::cubic(10.26), {14, 14, 14});
  const grid::GVectors gvectors(grid);
  const HxcKernel kernel(grid, gvectors, smooth_density(grid), true);
  Rng rng(9);
  const la::RealMatrix in = la::RealMatrix::random_normal(grid.size(), 9, rng);
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  la::RealMatrix want(grid.size(), 9);
  for (const int threads : {1, 3, 4}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    la::RealMatrix got(grid.size(), 9);
    kernel.apply(in.view(), got.view());
    if (threads == 1) {
      want = got;
      continue;
    }
    for (Index i = 0; i < grid.size(); ++i) {
      for (Index j = 0; j < 9; ++j) {
        ASSERT_EQ(got(i, j), want(i, j))
            << "threads=" << threads << " (" << i << "," << j << ")";
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(HxcKernel, ShapeChecks) {
  KernelFixture f;
  const HxcKernel kernel(f.grid, f.gvectors, f.density, true);
  la::RealMatrix in(5, 1), out(f.grid.size(), 1);
  EXPECT_THROW(kernel.apply(in.view(), out.view()), Error);
}

}  // namespace
}  // namespace lrt::tddft
