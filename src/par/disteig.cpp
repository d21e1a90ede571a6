#include "par/disteig.hpp"

#include <algorithm>

#include "la/eig_parts.hpp"
#include "par/jacobi_eig.hpp"

namespace lrt::par {

DistEigResult dist_syev(Comm& comm, const DistMatrix& a,
                        DistEigMethod method) {
  LRT_CHECK(a.global_rows() == a.global_cols(),
            "dist_syev needs a square matrix");
  const Index n = a.global_rows();
  const int p = comm.size();

  if (method == DistEigMethod::kJacobi) {
    // Fully distributed path: replicate the (square, assumed moderate)
    // input and run the column-distributed Jacobi sweeps.
    const la::RealMatrix full = a.allgather_full(comm);
    const JacobiEigResult jacobi = dist_jacobi_syev(comm, full.view());
    LRT_CHECK(jacobi.converged, "distributed Jacobi did not converge");
    DistEigResult result{jacobi.values, DistMatrix(a.layout(), comm.rank())};
    result.vectors.fill_global(
        [&](Index i, Index j) { return jacobi.vectors(i, j); });
    return result;
  }

  DistEigResult result{std::vector<Real>(static_cast<std::size_t>(n)),
                       DistMatrix(a.layout(), comm.rank())};
  if (n == 0) return result;

  // Rank 0 reduces the symmetrized matrix to tridiagonal form and
  // broadcasts the result: the Householder vectors, (d, e) and so every
  // later scalar are then the same bits on every rank.
  std::vector<Real>& d = result.values;
  std::vector<Real> e(static_cast<std::size_t>(n), Real{0});
  la::RealMatrix w = a.gather(comm, /*root=*/0);
  if (n == 1) {  // as la::syev: the entry itself, not its symmetrization
    if (comm.rank() == 0) d[0] = w(0, 0);
    comm.bcast(d.data(), 1, /*root=*/0);
    result.vectors.fill_global([](Index, Index) { return Real{1}; });
    return result;
  }
  if (comm.rank() == 0) {
    la::eig_parts::symmetrize(w);
    la::eig_parts::tred2_reduce(w, d, e);
  } else {
    w.resize(n, n);
  }
  comm.bcast(w.data(), w.size(), /*root=*/0);
  comm.bcast(d.data(), n, /*root=*/0);
  comm.bcast(e.data(), n, /*root=*/0);

  // Accumulation over cyclically owned rows of W = Vᵀ: row j's work
  // falls as n² − j², so cyclic ownership balances it.
  const int me = comm.rank();
  std::vector<Index> my_rows;
  for (Index j = me; j < n; j += p) my_rows.push_back(j);
  la::eig_parts::tred2_accumulate(w, d, my_rows);

  // One alltoallv from row slices to column blocks: rank q receives
  // columns [cols.offset(q), +cols.count(q)) of every row of W, i.e. the
  // rows of V a block-row layout gives it.
  const BlockPartition cols(n, p);
  const auto rows_of = [n, p](int r) {
    return r < n ? (n - 1 - r) / p + 1 : Index{0};
  };
  std::vector<Index> send_counts(static_cast<std::size_t>(p));
  std::vector<Index> send_displs(static_cast<std::size_t>(p));
  std::vector<Index> recv_counts(static_cast<std::size_t>(p));
  std::vector<Index> recv_displs(static_cast<std::size_t>(p));
  Index send_total = 0;
  Index recv_total = 0;
  for (int q = 0; q < p; ++q) {
    const auto qi = static_cast<std::size_t>(q);
    send_counts[qi] = static_cast<Index>(my_rows.size()) * cols.count(q);
    send_displs[qi] = send_total;
    send_total += send_counts[qi];
    recv_counts[qi] = rows_of(q) * cols.count(me);
    recv_displs[qi] = recv_total;
    recv_total += recv_counts[qi];
  }
  std::vector<Real> send(static_cast<std::size_t>(send_total));
  for (int q = 0; q < p; ++q) {
    Real* out = send.data() + send_displs[static_cast<std::size_t>(q)];
    for (const Index j : my_rows) {
      const Real* src = w.row_ptr(j) + cols.offset(q);
      out = std::copy(src, src + cols.count(q), out);
    }
  }
  w = la::RealMatrix();
  std::vector<Real> recv(static_cast<std::size_t>(recv_total));
  comm.alltoallv(send.data(), send_counts, send_displs, recv.data(),
                 recv_counts, recv_displs);
  send = std::vector<Real>();

  const Index mc = cols.count(me);
  la::RealMatrix slice(n, mc);
  for (int s = 0; s < p; ++s) {
    const Real* in = recv.data() + recv_displs[static_cast<std::size_t>(s)];
    for (Index j = s; j < n; j += p, in += mc) {
      std::copy(in, in + mc, slice.row_ptr(j));
    }
  }
  recv = std::vector<Real>();
  la::eig_parts::tql2(slice, d, e);

  // A column block of W is a row block of V: block-row callers (the
  // driver) are done; any other layout gets one redistribute.
  const Layout row_layout = Layout::block_row(n, n, p);
  DistMatrix vec_rows(row_layout, me);
  vec_rows.local() = la::transpose<Real>(slice.view());
  result.vectors = a.layout() == row_layout
                       ? std::move(vec_rows)
                       : redistribute(comm, vec_rows, a.layout());
  return result;
}

}  // namespace lrt::par
