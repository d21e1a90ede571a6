#include "la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/qr.hpp"

namespace lrt::la {
namespace {

// Both routines below work on W = Vᵀ, the transpose of the EISPACK
// working matrix: every V(r, c) of the Algol procedures is read as
// W(c, r). Each eigenvector is then a contiguous row of W, so the
// O(n³) inner loops (the Householder update and accumulation in tred2,
// the Givens rotation of two eigenvectors in tql2) are unit-stride row
// sweeps instead of column walks. Loop order and operation order are
// those of the Algol procedures, so the results are bitwise identical
// to the textbook row-major port (tests/test_la_eig.cpp keeps it as an
// oracle).

// Householder reduction of a real symmetric matrix to tridiagonal form
// with accumulated transformations. Ported from the Algol tred2 procedure
// (Bowdler, Martin, Reinsch, Wilkinson; Handbook for Automatic Computation)
// in its widely used C translation. On entry `w` holds the symmetric
// matrix; on exit it holds the transpose of the accumulated orthogonal
// matrix, `d` the diagonal and `e` the subdiagonal (e[0] = 0).
void tred2(RealMatrix& w, std::vector<Real>& d, std::vector<Real>& e) {
  const Index n = w.rows();
  for (Index j = 0; j < n; ++j) d[j] = w(j, n - 1);

  for (Index i = n - 1; i > 0; --i) {
    Real scale = 0.0;
    Real h = 0.0;
    for (Index k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (Index j = 0; j < i; ++j) {
        d[j] = w(j, i - 1);
        w(j, i) = 0.0;
        w(i, j) = 0.0;
      }
    } else {
      for (Index k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      Real f = d[i - 1];
      Real g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (Index j = 0; j < i; ++j) e[j] = 0.0;

      for (Index j = 0; j < i; ++j) {
        const Real* wj = w.row_ptr(j);
        f = d[j];
        w(i, j) = f;
        g = e[j] + wj[j] * f;
        for (Index k = j + 1; k <= i - 1; ++k) {
          g += wj[k] * d[k];
          e[k] += wj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (Index j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const Real hh = f / (h + h);
      for (Index j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (Index j = 0; j < i; ++j) {
        Real* wj = w.row_ptr(j);
        f = d[j];
        g = e[j];
        for (Index k = j; k <= i - 1; ++k) {
          wj[k] -= (f * e[k] + g * d[k]);
        }
        d[j] = wj[i - 1];
        wj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate transformations.
  for (Index i = 0; i < n - 1; ++i) {
    w(i, n - 1) = w(i, i);
    w(i, i) = 1.0;
    Real* wi1 = w.row_ptr(i + 1);
    const Real h = d[i + 1];
    if (h != 0.0) {
      for (Index k = 0; k <= i; ++k) d[k] = wi1[k] / h;
      for (Index j = 0; j <= i; ++j) {
        Real* wj = w.row_ptr(j);
        Real g = 0.0;
        for (Index k = 0; k <= i; ++k) g += wi1[k] * wj[k];
        for (Index k = 0; k <= i; ++k) wj[k] -= g * d[k];
      }
    }
    for (Index k = 0; k <= i; ++k) wi1[k] = 0.0;
  }
  for (Index j = 0; j < n; ++j) {
    d[j] = w(j, n - 1);
    w(j, n - 1) = 0.0;
  }
  w(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL iteration on the tridiagonal (d, e) with eigenvector
// accumulation into the rows of w. Ported from the Algol tql2 procedure.
void tql2(RealMatrix& w, std::vector<Real>& d, std::vector<Real>& e) {
  const Index n = w.rows();
  for (Index i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  Real f = 0.0;
  Real tst1 = 0.0;
  const Real eps = std::numeric_limits<Real>::epsilon();

  for (Index l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    Index m = l;
    while (m < n) {
      if (std::abs(e[m]) <= eps * tst1) break;
      ++m;
    }

    if (m > l) {
      int iter = 0;
      do {
        ++iter;
        LRT_CHECK(iter <= 60, "tql2 failed to converge at eigenvalue " << l);

        Real g = d[l];
        Real p = (d[l + 1] - g) / (2.0 * e[l]);
        Real r = std::hypot(p, Real{1});
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const Real dl1 = d[l + 1];
        Real h = g - d[l];
        for (Index i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        p = d[m];
        Real c = 1.0;
        Real c2 = c;
        Real c3 = c;
        const Real el1 = e[l + 1];
        Real s = 0.0;
        Real s2 = 0.0;
        for (Index i = m - 1; i >= l; --i) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          Real* wi = w.row_ptr(i);
          Real* wi1 = w.row_ptr(i + 1);
          for (Index k = 0; k < n; ++k) {
            h = wi1[k];
            wi1[k] = s * wi[k] + c * h;
            wi[k] = c * wi[k] - s * h;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }

  // Sort eigenvalues ascending, permuting eigenvectors (rows) alongside.
  for (Index i = 0; i < n - 1; ++i) {
    Index k = i;
    Real p = d[i];
    for (Index j = i + 1; j < n; ++j) {
      if (d[j] < p) {
        k = j;
        p = d[j];
      }
    }
    if (k != i) {
      d[k] = d[i];
      d[i] = p;
      std::swap_ranges(w.row_ptr(i), w.row_ptr(i) + n, w.row_ptr(k));
    }
  }
}

// In-place transpose of a square matrix.
void transpose_in_place(RealMatrix& w) {
  const Index n = w.rows();
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) std::swap(w(i, j), w(j, i));
  }
}

RealMatrix symmetrized_copy(RealConstView a) {
  LRT_CHECK(a.rows() == a.cols(), "syev needs a square matrix");
  RealMatrix m(a.rows(), a.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j <= i; ++j) {
      const Real avg = 0.5 * (a(i, j) + a(j, i));
      m(i, j) = avg;
      m(j, i) = avg;
    }
  }
  return m;
}

}  // namespace

EigResult syev(RealConstView a) {
  EigResult result;
  const Index n = a.rows();
  result.values.assign(static_cast<std::size_t>(n), Real{0});
  result.vectors = symmetrized_copy(a);
  if (n == 0) return result;
  if (n == 1) {
    result.values[0] = a(0, 0);
    result.vectors(0, 0) = 1.0;
    return result;
  }
  // The symmetrized copy is its own transpose, so it is already the
  // working matrix W = Vᵀ; one transpose at the end returns V.
  std::vector<Real> e(static_cast<std::size_t>(n), Real{0});
  tred2(result.vectors, result.values, e);
  tql2(result.vectors, result.values, e);
  transpose_in_place(result.vectors);
  return result;
}

EigResult sygv(RealConstView a, RealConstView b) {
  LRT_CHECK(a.rows() == a.cols() && b.rows() == b.cols() &&
                a.rows() == b.rows(),
            "sygv shape mismatch");
  // B = L Lᵀ, solve (L⁻¹ A L⁻ᵀ) y = λ y, then x = L⁻ᵀ y.
  const RealMatrix l = cholesky(b);
  RealMatrix atilde = symmetrized_copy(a);
  // atilde := L⁻¹ atilde
  solve_lower_triangular(l.view(), atilde.view());
  // atilde := atilde L⁻ᵀ
  trsm_right_lower(Trans::kYes, l.view(), atilde.view());

  EigResult result = syev(atilde.view());
  // Back-transform eigenvectors: x = L⁻ᵀ y.
  solve_lower_transposed(l.view(), result.vectors.view());
  return result;
}

Real eig_residual(RealConstView a, const EigResult& result) {
  const Index n = a.rows();
  const Index k = result.vectors.cols();
  RealMatrix ax = gemm(Trans::kNo, Trans::kNo, a, result.vectors.view());
  Real worst = 0.0;
  for (Index j = 0; j < k; ++j) {
    Real sum = 0.0;
    for (Index i = 0; i < n; ++i) {
      const Real r = ax(i, j) - result.values[static_cast<std::size_t>(j)] *
                                    result.vectors(i, j);
      sum += r * r;
    }
    worst = std::max(worst, std::sqrt(sum));
  }
  return worst;
}

}  // namespace lrt::la
