// Distributed dense-algebra ablation: SUMMA GEMM grids and the
// distributed Jacobi eigensolver vs the split SYEVD stand-in — the
// ScaLAPACK-like substrate pieces behind the paper's §5 design choices.
#include <cstdio>

#include "bench_util.hpp"
#include "la/eig.hpp"
#include "par/disteig.hpp"
#include "par/jacobi_eig.hpp"
#include "par/summa.hpp"

using namespace lrt;

int main() {
  // ---- SUMMA on different grid shapes --------------------------------------
  {
    const Index m = 384, n = 384, k = 384;
    Rng rng(1);
    const la::RealMatrix a = la::RealMatrix::random_normal(m, k, rng);
    const la::RealMatrix b = la::RealMatrix::random_normal(k, n, rng);

    Table table("SUMMA distributed GEMM (384³), grid shape sweep",
                {"grid", "busy CPU max [s]", "MB sent/rank"});
    const std::pair<int, int> grids[] = {{1, 1}, {1, 4}, {4, 1}, {2, 2}};
    for (const auto& [prow, pcol] : grids) {
      double busy = 0;
      long long bytes = 0;
      par::run(prow * pcol, [&](par::Comm& comm) {
        par::ProcessGrid2D grid(comm, prow, pcol);
        const par::BlockPartition rows_m(m, prow);
        const par::BlockPartition cols_n(n, pcol);
        const par::BlockPartition k_col(k, pcol);
        const par::BlockPartition k_row(k, prow);
        const auto a_loc = a.view().block(
            rows_m.offset(grid.my_row()), k_col.offset(grid.my_col()),
            rows_m.count(grid.my_row()), k_col.count(grid.my_col()));
        const auto b_loc = b.view().block(
            k_row.offset(grid.my_row()), cols_n.offset(grid.my_col()),
            k_row.count(grid.my_row()), cols_n.count(grid.my_col()));
        comm.barrier();
        ThreadCpuTimer cpu;
        const la::RealMatrix c_loc =
            summa_gemm(grid, a_loc, b_loc, m, n, k);
        double local_busy = cpu.seconds();
        comm.allreduce(&local_busy, 1, par::ReduceOp::kMax);
        if (comm.rank() == 0) {
          busy = local_busy;
          // SUMMA traffic flows through the row/column subcommunicators.
          bytes = grid.row_comm().bytes_sent() + grid.col_comm().bytes_sent();
        }
        (void)c_loc;
      });
      table.row()
          .cell(std::to_string(prow) + "x" + std::to_string(pcol))
          .cell(busy, 3)
          .cell(double(bytes) / 1e6, 2);
    }
    table.print();
    std::printf("\n");
  }

  // ---- distributed Jacobi vs split SYEVD stand-in ---------------------------
  {
    const Index n = 96;
    Rng rng(2);
    la::RealMatrix a = la::RealMatrix::random_normal(n, n, rng);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < i; ++j) a(j, i) = a(i, j);
    }
    const la::EigResult serial = la::syev(a.view());

    Table table("Distributed eigensolvers (n=96): Jacobi vs split SYEVD",
                {"ranks", "solver", "busy CPU max [s]", "max |dλ|"});
    for (const int p : {1, 2, 4}) {
      for (const bool jacobi : {false, true}) {
        double busy = 0;
        Real max_err = 0;
        par::run(p, [&](par::Comm& comm) {
          ThreadCpuTimer cpu;
          std::vector<Real> values;
          if (jacobi) {
            values = par::dist_jacobi_syev(comm, a.view()).values;
          } else {
            const par::Layout layout = par::Layout::block_row(n, n, p);
            par::DistMatrix dist(layout, comm.rank());
            dist.fill_global([&a](Index i, Index j) { return a(i, j); });
            values = par::dist_syev(comm, dist).values;
          }
          double local_busy = cpu.seconds();
          comm.allreduce(&local_busy, 1, par::ReduceOp::kMax);
          if (comm.rank() == 0) {
            busy = local_busy;
            for (Index i = 0; i < n; ++i) {
              max_err = std::max(
                  max_err, std::abs(values[static_cast<std::size_t>(i)] -
                                    serial.values[static_cast<std::size_t>(i)]));
            }
          }
        });
        table.row()
            .cell(p)
            .cell(jacobi ? "one-sided Jacobi (distributed)"
                         : "split SYEVD stand-in")
            .cell(busy, 4)
            .cell(format_real(max_err, 10));
      }
    }
    table.print();
    std::printf(
        "\nshape to see: the split stand-in keeps a serial part (the\n"
        "Householder reduction on rank 0, the QL recurrence on every rank),\n"
        "while Jacobi has none and pays for it in flops.\n");
  }
  return 0;
}
