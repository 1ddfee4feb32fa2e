#ifndef TDAC_DATA_SOA_MODE_H_
#define TDAC_DATA_SOA_MODE_H_

#include <atomic>

namespace tdac {

// Atomic because pool workers read the mode while running kernels.
inline std::atomic<bool> soa_kernels_enabled{true};

/// True when the hot kernels (grouping, vote tallies, truth vectors) take
/// their columnar structure-of-arrays paths; false forces the legacy
/// per-claim reference paths. Always on unless `SetSoaKernelsEnabled`
/// turned it off; no environment variable reaches it.
///
/// Both paths are bit-identical by contract — the switch exists so the
/// differential equivalence suite (tests/soa_equivalence_test.cc) can run
/// every algorithm down both and prove it.
inline bool SoaKernelsEnabled() {
  return soa_kernels_enabled.load(std::memory_order_relaxed);
}

/// Test seam: pins the kernel path for this process. Call between runs,
/// not while discovery is in flight.
inline void SetSoaKernelsEnabled(bool enabled) {
  soa_kernels_enabled.store(enabled, std::memory_order_relaxed);
}

}  // namespace tdac

#endif  // TDAC_DATA_SOA_MODE_H_
