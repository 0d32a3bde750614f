/**
 * @file
 * The backends the equivalence suites hold to the reference oracle: the
 * optimized backend, listed once per compiled ISA copy, so both copies
 * meet the same bar. The AVX2 entry runs the shared kOptimized instance
 * and is skipped (GTEST_SKIP) on a CPU without AVX2, where that instance
 * runs the baseline copy; the baseline entry pins a forced-baseline
 * instance, so it runs on every CPU.
 */
#ifndef GRANITE_TESTS_BACKENDS_UNDER_TEST_H_
#define GRANITE_TESTS_BACKENDS_UNDER_TEST_H_

#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "ml/kernels/kernel_backend.h"
#include "ml/kernels/optimized_backend.h"

namespace granite::ml {

/** The optimized backend pinned to its baseline ISA copy. */
inline const OptimizedBackend& BaselineCopyBackend() {
  static const OptimizedBackend backend(/*force_baseline_isa=*/true);
  return backend;
}

/** True when the shared optimized backend runs the AVX2 copy. */
inline bool DispatchesAvx2Copy() {
  const auto& optimized = static_cast<const OptimizedBackend&>(
      GetKernelBackend(KernelBackendKind::kOptimized));
  return std::strcmp(optimized.isa(), "avx2") == 0;
}

/** One backend under test. */
struct BackendUnderTest {
  /** Test-name suffix. */
  std::string name;
  /** The shared backend's kind; kDefault when `pinned` is set. */
  KernelBackendKind kind;
  /** A backend instance of its own (an ISA copy), or null. To
   * reach code that resolves backends by kind, install it with
   * SetDefaultKernelBackend and pass `kind`. */
  const KernelBackend* pinned;
  /** Skip on CPUs without AVX2. */
  bool needs_avx2;

  const KernelBackend& backend() const {
    return pinned != nullptr ? *pinned : GetKernelBackend(kind);
  }
};

/** The optimized backend, once per ISA copy. */
inline std::vector<BackendUnderTest> BackendsUnderTest() {
  return {{"optimized_avx2", KernelBackendKind::kOptimized, nullptr, true},
          {"optimized_baseline", KernelBackendKind::kDefault,
           &BaselineCopyBackend(), false}};
}

inline std::string BackendUnderTestName(
    const ::testing::TestParamInfo<BackendUnderTest>& info) {
  return info.param.name;
}

/** gtest prints parameters with this. */
inline void PrintTo(const BackendUnderTest& backend, std::ostream* os) {
  *os << backend.name;
}

}  // namespace granite::ml

#endif  // GRANITE_TESTS_BACKENDS_UNDER_TEST_H_
