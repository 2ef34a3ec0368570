/**
 * @file
 * Counting replacements for the global allocation operators, for the
 * zero-allocation contracts of the api layer (the LaunchBuilder test
 * and the micro_repeats issue-path record both report allocations per
 * launch), and a one-shot allocation failure for fault injection.
 *
 * Including this header REPLACES the program's global operator
 * new/delete: include it from exactly ONE translation unit of a
 * binary (it defines non-inline operators; a second inclusion is an
 * ODR violation the linker will reject). It is instrumentation for
 * tests and benches — never include it from library code.
 */
#ifndef APOPHENIA_SUPPORT_COUNTING_ALLOCATOR_H
#define APOPHENIA_SUPPORT_COUNTING_ALLOCATOR_H

#include <atomic>
#include <cstdlib>
#include <new>

namespace apo::support {

/** Total allocations observed since process start. */
inline std::atomic<std::uint64_t> g_allocation_count{0};

inline std::uint64_t AllocationCount()
{
    return g_allocation_count.load(std::memory_order_relaxed);
}

/** Armed by FailNextAllocation(). */
inline std::atomic<bool> g_fail_next_allocation{false};

/** Make the next allocation, on whichever thread makes it, throw
 * std::bad_alloc: a failure injected into code a test cannot reach
 * otherwise. */
inline void FailNextAllocation()
{
    g_fail_next_allocation.store(true);
}

}  // namespace apo::support

// GCC pairs the malloc in the replaced operator new with the free in
// operator delete just fine at runtime, but its inliner-driven
// -Wmismatched-new-delete heuristic misfires on the pair; silence it.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void*
operator new(std::size_t size)
{
    apo::support::g_allocation_count.fetch_add(1,
                                               std::memory_order_relaxed);
    if (apo::support::g_fail_next_allocation.load() &&
        apo::support::g_fail_next_allocation.exchange(false)) {
        throw std::bad_alloc();
    }
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

#endif  // APOPHENIA_SUPPORT_COUNTING_ALLOCATOR_H
