// Distributed matrix machinery: scatter/gather, redistribute (pdgemr2d
// analog), row<->column transposes, distributed GEMM/Gram, the pipelined
// reduction, and the distributed eigensolver.
#include <gtest/gtest.h>

#include "eig_test_inputs.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "par/distblas.hpp"
#include "par/disteig.hpp"
#include "par/distmatrix.hpp"
#include "par/pipeline.hpp"
#include "par/transpose.hpp"

namespace lrt::par {
namespace {

la::RealMatrix numbered_matrix(Index m, Index n) {
  la::RealMatrix a(m, n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) a(i, j) = 100.0 * i + j;
  }
  return a;
}

class DistSweep : public ::testing::TestWithParam<int> {};

TEST_P(DistSweep, FillGatherRoundTrip) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Layout layout = Layout::block_row(10, 6, p);
    DistMatrix m(layout, comm.rank());
    m.fill_global([](Index i, Index j) { return 100.0 * i + j; });
    const la::RealMatrix full = m.gather(comm, 0);
    if (comm.rank() == 0) {
      const la::RealMatrix expected = numbered_matrix(10, 6);
      EXPECT_LT(la::max_abs_diff(full.view(), expected.view()), 1e-14);
    }
  });
}

TEST_P(DistSweep, ScatterThenAllgatherFull) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Layout layout = Layout::block_col(7, 9, p);
    la::RealMatrix global;
    if (comm.rank() == 0) global = numbered_matrix(7, 9);
    const DistMatrix m = DistMatrix::scatter(comm, layout, global.view(), 0);
    const la::RealMatrix full = m.allgather_full(comm);
    const la::RealMatrix expected = numbered_matrix(7, 9);
    EXPECT_LT(la::max_abs_diff(full.view(), expected.view()), 1e-14);
  });
}

struct RedistCase {
  int p;
  int from, to;  // 0 row, 1 col, 2 cyclic
};

class RedistSweep : public ::testing::TestWithParam<RedistCase> {};

Layout make_layout(int scheme, Index m, Index n, int p) {
  switch (scheme) {
    case 0:
      return Layout::block_row(m, n, p);
    case 1:
      return Layout::block_col(m, n, p);
    default: {
      int prow = 1;
      for (int r = 1; r * r <= p; ++r) {
        if (p % r == 0) prow = r;
      }
      return Layout::block_cyclic_2d(m, n, prow, p / prow, 3, 2);
    }
  }
}

TEST_P(RedistSweep, PreservesEveryElement) {
  const RedistCase c = GetParam();
  run(c.p, [&c](Comm& comm) {
    const Index m = 11, n = 8;
    const Layout src_layout = make_layout(c.from, m, n, c.p);
    const Layout dst_layout = make_layout(c.to, m, n, c.p);
    DistMatrix src(src_layout, comm.rank());
    src.fill_global([](Index i, Index j) { return 100.0 * i + j; });
    const DistMatrix dst = redistribute(comm, src, dst_layout);
    // Verify local blocks directly against the generator.
    for (Index li = 0; li < dst.local().rows(); ++li) {
      const Index gi = dst_layout.global_row(comm.rank(), li);
      for (Index lj = 0; lj < dst.local().cols(); ++lj) {
        const Index gj = dst_layout.global_col(comm.rank(), lj);
        EXPECT_DOUBLE_EQ(dst.local()(li, lj), 100.0 * gi + gj);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    SchemePairs, RedistSweep,
    ::testing::Values(RedistCase{3, 0, 1}, RedistCase{3, 1, 0},
                      RedistCase{4, 0, 2}, RedistCase{4, 2, 0},
                      RedistCase{4, 1, 2}, RedistCase{2, 2, 2},
                      RedistCase{1, 0, 2}, RedistCase{5, 0, 1}));

TEST_P(DistSweep, RowColTransposeRoundTrip) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Index m = 13, n = 7;
    const BlockPartition rows(m, p);
    const la::RealMatrix full = numbered_matrix(m, n);
    const la::RealConstView my_rows =
        full.view().rows_block(rows.offset(comm.rank()),
                               rows.count(comm.rank()));

    const la::RealMatrix my_cols = row_block_to_col_block(
        comm, my_rows, m, n);
    const BlockPartition cols(n, p);
    EXPECT_EQ(my_cols.rows(), m);
    EXPECT_EQ(my_cols.cols(), cols.count(comm.rank()));
    for (Index i = 0; i < m; ++i) {
      for (Index j = 0; j < my_cols.cols(); ++j) {
        EXPECT_DOUBLE_EQ(my_cols(i, j),
                         full(i, cols.offset(comm.rank()) + j));
      }
    }

    const la::RealMatrix back =
        col_block_to_row_block(comm, my_cols.view(), m, n);
    EXPECT_LT(la::max_abs_diff(back.view(), my_rows), 1e-14);
  });
}

TEST_P(DistSweep, DistGemmTnMatchesSerial) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Index m = 20, ka = 5, kb = 4;
    Rng rng(11);
    const la::RealMatrix a = la::RealMatrix::random_normal(m, ka, rng);
    const la::RealMatrix b = la::RealMatrix::random_normal(m, kb, rng);
    const BlockPartition rows(m, p);
    const la::RealMatrix c = dist_gemm_tn(
        comm,
        a.view().rows_block(rows.offset(comm.rank()), rows.count(comm.rank())),
        b.view().rows_block(rows.offset(comm.rank()), rows.count(comm.rank())));
    const la::RealMatrix expected =
        la::gemm(la::Trans::kYes, la::Trans::kNo, a.view(), b.view());
    EXPECT_LT(la::max_abs_diff(c.view(), expected.view()), 1e-10);
  });
}

TEST_P(DistSweep, DistGramAndNorm) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Index m = 18, n = 4;
    Rng rng(12);
    const la::RealMatrix a = la::RealMatrix::random_normal(m, n, rng);
    const BlockPartition rows(m, p);
    const auto local = a.view().rows_block(rows.offset(comm.rank()),
                                           rows.count(comm.rank()));
    const la::RealMatrix g = dist_gram(comm, local);
    EXPECT_LT(la::max_abs_diff(g.view(), la::gram(a.view()).view()), 1e-10);
    EXPECT_NEAR(dist_frobenius_norm(comm, local),
                la::frobenius_norm(a.view()), 1e-10);
    EXPECT_NEAR(dist_sum(comm, 1.0), double(p), 1e-14);
  });
}

TEST_P(DistSweep, PipelinedReduceMatchesMonolithic) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Index m = 24, k = 9, n = 6;
    Rng rng(13);
    const la::RealMatrix a = la::RealMatrix::random_normal(m, k, rng);
    const la::RealMatrix b = la::RealMatrix::random_normal(m, n, rng);
    const BlockPartition rows(m, p);
    const auto a_loc = a.view().rows_block(rows.offset(comm.rank()),
                                           rows.count(comm.rank()));
    const auto b_loc = b.view().rows_block(rows.offset(comm.rank()),
                                           rows.count(comm.rank()));

    const la::RealMatrix mono = gram_reduce_monolithic(comm, a_loc, b_loc);
    const PipelineResult piped =
        gram_reduce_pipelined(comm, a_loc, b_loc, /*chunk_rows=*/2);

    const BlockPartition out(k, p);
    EXPECT_EQ(piped.row_offset, out.offset(comm.rank()));
    EXPECT_EQ(piped.local_rows.rows(), out.count(comm.rank()));
    for (Index i = 0; i < piped.local_rows.rows(); ++i) {
      for (Index j = 0; j < n; ++j) {
        EXPECT_NEAR(piped.local_rows(i, j), mono(piped.row_offset + i, j),
                    1e-10);
      }
    }
  });
}

TEST_P(DistSweep, DistSyevMatchesSerial) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Index n = 16;
    Rng rng(14);
    la::RealMatrix a = la::RealMatrix::random_normal(n, n, rng);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
    }
    const Layout layout = Layout::block_row(n, n, p);
    DistMatrix dist(layout, comm.rank());
    dist.fill_global([&a](Index i, Index j) { return a(i, j); });

    const DistEigResult result = dist_syev(comm, dist);
    const la::EigResult serial = la::syev(a.view());
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(result.values[static_cast<std::size_t>(i)],
                  serial.values[static_cast<std::size_t>(i)], 1e-9);
    }
    // Vectors come back in the input layout and diagonalize A:
    // gather and check the residual.
    const la::RealMatrix v = result.vectors.gather(comm, 0);
    if (comm.rank() == 0) {
      la::EigResult check;
      check.values = result.values;
      check.vectors = v;
      EXPECT_LT(la::eig_residual(a.view(), check), 1e-8);
    }
  });
}

// The kGathered path runs la::syev's own pieces over rank-owned rows and
// columns, so its values and vectors equal la::syev bit for bit at every
// rank count, n < p included, whatever the input layout.
void expect_dist_syev_bitwise_equal(int p, const la::RealMatrix& a,
                                    const Layout& layout) {
  const la::EigResult want = la::syev(a.view());
  run(p, [&](Comm& comm) {
    DistMatrix dist(layout, comm.rank());
    dist.fill_global([&a](Index i, Index j) { return a(i, j); });
    const DistEigResult result = dist_syev(comm, dist);
    EXPECT_EQ(result.vectors.layout(), layout);
    const la::RealMatrix v = result.vectors.allgather_full(comm);
    EXPECT_EQ(result.values, want.values) << "n = " << a.rows();
    ASSERT_EQ(v.rows(), want.vectors.rows());
    ASSERT_EQ(v.cols(), want.vectors.cols());
    Index mismatches = 0;
    for (Index i = 0; i < v.rows(); ++i) {
      for (Index j = 0; j < v.cols(); ++j) {
        if (v(i, j) != want.vectors(i, j)) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << "n = " << a.rows() << " on rank "
                             << comm.rank();
  });
}

TEST_P(DistSweep, DistSyevBitwiseEqualsSerial) {
  const int p = GetParam();
  for (const Index n : {Index{1}, Index{2}, Index{3}, Index{14}, Index{64},
                        Index{257}}) {
    Rng rng(static_cast<unsigned>(300 + n));
    // Deliberately unsymmetric: both solvers symmetrize.
    const la::RealMatrix a = la::RealMatrix::random_normal(n, n, rng);
    expect_dist_syev_bitwise_equal(p, a, Layout::block_row(n, n, p));
  }
  for (const la::RealMatrix& a : {la::eig_inputs::block_diagonal_zero_scale(),
                                  la::eig_inputs::degenerate_spectrum(),
                                  la::eig_inputs::degenerate_diagonal()}) {
    expect_dist_syev_bitwise_equal(p, a,
                                   Layout::block_row(a.rows(), a.cols(), p));
  }
  // A layout other than block-row takes the redistribute at the end.
  Rng rng(17);
  const la::RealMatrix a = la::RealMatrix::random_normal(14, 14, rng);
  expect_dist_syev_bitwise_equal(p, a, Layout::block_col(14, 14, p));
  expect_dist_syev_bitwise_equal(
      p, a, Layout::block_cyclic_2d(14, 14, 1, p, 3, 3));
}

TEST_P(DistSweep, DistSyevJacobiMethodMatchesSerial) {
  const int p = GetParam();
  run(p, [p](Comm& comm) {
    const Index n = 14;
    Rng rng(21);
    la::RealMatrix a = la::RealMatrix::random_normal(n, n, rng);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
    }
    const Layout layout = Layout::block_row(n, n, p);
    DistMatrix dist(layout, comm.rank());
    dist.fill_global([&a](Index i, Index j) { return a(i, j); });

    const DistEigResult result =
        dist_syev(comm, dist, DistEigMethod::kJacobi);
    const la::EigResult serial = la::syev(a.view());
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(result.values[static_cast<std::size_t>(i)],
                  serial.values[static_cast<std::size_t>(i)], 1e-8);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace lrt::par
