// OpenMP query shared by the kernels that thread only when not already
// inside a parallel region; compiles to `false` without OpenMP.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

namespace lrt {

/// True inside an active OpenMP team (more than one thread).
inline bool in_omp_parallel() {
#ifdef _OPENMP
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

}  // namespace lrt
