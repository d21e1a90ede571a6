// The pieces of la::syev, for callers that split its work.
//
// syev runs, on the working matrix W = Vᵀ (eigenvectors in rows):
//
//   symmetrize -> tred2_reduce -> tred2_accumulate(all rows)
//              -> tql2(all columns) -> transpose
//
// The two eigenvector halves split without changing a single operation:
//  - tred2_accumulate: step i updates rows j <= i of W, reading only the
//    Householder vector in row i+1 (untouched by the steps before it) and
//    scalars every caller computes identically. Running it over any row
//    set yields, in those rows, exactly the bits the full run gives.
//  - tql2: the rotation sequence depends only on (d, e), and each
//    rotation and the final sort act on every column k of W separately.
//    Running it on any column slice yields that slice's bits, and the
//    eigenvalues in full.
// par::dist_syev uses this to share both halves across ranks and stay
// bitwise equal to syev (docs/PERFORMANCE.md §7). Internal to la and par.
#pragma once

#include <span>
#include <vector>

#include "la/matrix.hpp"

namespace lrt::la::eig_parts {

/// a := (a + aᵀ) / 2 in place, entry by entry as syev does it.
void symmetrize(RealMatrix& a);

/// Householder half of tred2 on the symmetric n×n `w` (n >= 1; d and e of
/// size n). On exit row i of `w` holds step i's Householder vector in
/// columns [0, i), the diagonal of `w` the tridiagonal's diagonal and
/// everything above it zero; d[i] holds step i's scalar h, e the
/// subdiagonal (e[0] = 0).
void tred2_reduce(RealMatrix& w, std::vector<Real>& d, std::vector<Real>& e);

/// Accumulation half of tred2 over the rows listed in `rows` (ascending).
/// `w` and `d` are tred2_reduce's output, in full. On exit those rows of
/// `w` are the rows of W = Vᵀ, the other rows are scratch, and d holds the
/// tridiagonal's diagonal.
void tred2_accumulate(RealMatrix& w, std::vector<Real>& d,
                      std::span<const Index> rows);

/// Implicit-shift QL on the tridiagonal (d, e) of size n, with the
/// rotations and the ascending sort applied to `w`, an n×m column slice of
/// W (row i holds m consecutive entries of W's row i; m may be 0). On exit
/// d holds the ascending eigenvalues.
void tql2(RealMatrix& w, std::vector<Real>& d, std::vector<Real>& e);

}  // namespace lrt::la::eig_parts
