#include "par/dist_fft3d.hpp"

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "par/layout.hpp"
#include "par/transpose.hpp"

namespace lrt::par {

DistFft3D::DistFft3D(Comm& comm, Index n0, Index n1, Index n2)
    : comm_(&comm), n_{n0, n1, n2}, plan0_(n0), plan1_(n1), plan2_(n2) {
  LRT_CHECK(n0 >= 1 && n1 >= 1 && n2 >= 1,
            "bad 3-D FFT shape " << n0 << "x" << n1 << "x" << n2);
  const BlockPartition slabs(n0, comm.size());
  count0_ = slabs.count(comm.rank());
  offset0_ = slabs.offset(comm.rank());
}

void DistFft3D::transform(fft::Complex* x, bool inverse) const {
  const Index n0 = n_[0], n1 = n_[1], n2 = n_[2];
  const obs::Span span("par.dist_fft3d");

  // Axes 2 and 1: local to the slab, same batched calls as Fft3D.
  if (count0_ > 0) {
    if (inverse) {
      plan2_.inverse_many(x, count0_ * n1, /*stride=*/1, /*dist=*/n2);
    } else {
      plan2_.forward_many(x, count0_ * n1, /*stride=*/1, /*dist=*/n2);
    }
    if (inverse) {
      plan1_.inverse_many(x, n2, /*stride=*/n2, /*dist=*/1, count0_, n1 * n2);
    } else {
      plan1_.forward_many(x, n2, /*stride=*/n2, /*dist=*/1, count0_, n1 * n2);
    }
  }

  // Axis 0: the slab is this rank's row block of the (n0 x n1*n2) matrix
  // M(i0, i1*n2 + i2), so the pencil redistribution is the overlapped
  // column-block transpose; pencils hold full axis-0 lines with stride
  // equal to the local line count, exactly the serial axis-0 batch shape.
  const la::ComplexConstView slab_view(x, count0_, n1 * n2, n1 * n2);
  la::ComplexMatrix pencil = row_block_to_col_block_overlapped(
      *comm_, slab_view, n0, n1 * n2);
  const Index lines = pencil.cols();
  if (lines > 0) {
    if (inverse) {
      plan0_.inverse_many(pencil.data(), lines, /*stride=*/lines, /*dist=*/1);
    } else {
      plan0_.forward_many(pencil.data(), lines, /*stride=*/lines, /*dist=*/1);
    }
  }
  const la::ComplexMatrix back = col_block_to_row_block_overlapped(
      *comm_, pencil.view(), n0, n1 * n2);
  for (Index i = 0; i < count0_ * n1 * n2; ++i) x[i] = back.data()[i];
}

void DistFft3D::forward(fft::Complex* x_local) const {
  transform(x_local, /*inverse=*/false);
}

void DistFft3D::inverse(fft::Complex* x_local) const {
  transform(x_local, /*inverse=*/true);
}

}  // namespace lrt::par
