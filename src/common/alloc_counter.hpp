// Per-thread heap-allocation counter.
//
// The staged pipeline advertises zero steady-state allocations per scored
// trial; this header is how that claim is measured rather than asserted.
// Linking vibguard_common replaces the global scalar `operator new` /
// `operator delete` with versions that bump a thread-local counter before
// delegating to malloc/free, so `allocation_count()` deltas around a code
// region report exactly how many heap allocations that region performed on
// the calling thread. The per-stage `allocations` field of StageTrace and
// the bench_score_batch steady-state check are both built on these deltas.
//
// The counter costs one thread-local increment per allocation — negligible
// next to malloc itself — and is always on.
#pragma once

#include <cstdint>

namespace vibguard {

/// Number of scalar operator-new calls made by the calling thread since it
/// started. Take deltas; the absolute value includes runtime startup noise.
std::uint64_t allocation_count() noexcept;

/// Adds `n` allocations made on another thread on the calling thread's
/// behalf (a Companion's task), so deltas around the handoff count them.
void add_allocations(std::uint64_t n) noexcept;

}  // namespace vibguard
