#pragma once
// Panel packing for the BLIS-style GEMM engine (DESIGN.md §11).
//
// gemm_packed copies the A and B blocks a macro-iteration will touch into
// contiguous 64-byte-aligned buffers before the micro-kernel sweeps them.
// The payoff is the classical one: the micro-kernel then streams both
// operands at unit stride from small, cache-resident, conflict-free panels
// instead of striding through the full matrices.
//
// Panel layout: per-limb planes STAY planar inside the panel -- plane p of
// the packed block occupies one contiguous slab, exactly like a shrunken
// planar::Vector:
//
//   packed A (mc x kc):  buf[p * mc*kc + r * kc + kk]   (row-major rows)
//   packed B (kc x nc):  buf[p * kc*nc + kk * nc + j]   (row-major rows)
//
// so the Pack<T, W> FPAN kernels run stride-1 loads over packed B
// rows and packed C rows, and the per-(row, kk) A broadcast reads one scalar
// per plane. Sources may be planar views (every copy is a contiguous row
// segment) or AoS views of MultiFloat<T, N> (limb p of a row is read at
// stride N): packing is the one place the source layout matters, so both
// layouts share every loop after it. Either way packing costs O(block)
// copies, amortized over O(block * panel) flops.

#include <cstddef>
#include <memory>
#include <new>

#include "../../guard/inject.hpp"
#include "../../telemetry/events.hpp"
#include "../planar.hpp"
#include "../views.hpp"

namespace mf::blas::engine {

namespace detail {

/// Limb p of row i of a planar view: a plain pointer into plane p.
template <std::floating_point T, int N>
[[nodiscard]] inline const T* limb_row(const planar::ConstMatrixView<T, N>& v, int p,
                                       std::size_t i) noexcept {
    return v.row(p, i);
}

/// Limb p of row i of an AoS view: indexing by column reads element j's limb p.
template <std::floating_point T, int N>
struct AosLimbRow {
    const MultiFloat<T, N>* row;
    int p;
    [[nodiscard]] T operator[](std::size_t j) const noexcept { return row[j].limb[p]; }
};

template <std::floating_point T, int N>
[[nodiscard]] inline AosLimbRow<T, N> limb_row(
    const ConstMatrixView<MultiFloat<T, N>>& v, int p, std::size_t i) noexcept {
    return {v.row(i), p};
}

}  // namespace detail

/// 64-byte-aligned uninitialized scratch, grow-only (reallocation keeps no
/// contents: packing always overwrites the block it is about to use).
/// Aligned by hand inside a plain allocation rather than by aligned
/// operator new, whose chunk splitting fragments the heap when many small
/// GEMMs each reserve and free their pack scratch.
template <typename T>
class AlignedBuffer {
public:
    AlignedBuffer() = default;
    ~AlignedBuffer() { release(); }
    AlignedBuffer(const AlignedBuffer&) = delete;
    AlignedBuffer& operator=(const AlignedBuffer&) = delete;

    static constexpr std::size_t alignment = 64;

    /// Ensure capacity for n elements; returns the (aligned) base pointer.
    /// Throws std::bad_alloc on exhaustion (real or injected) -- callers that
    /// must not fail mid-computation pre-reserve their worst case up front
    /// (gemm_packed does), after which in-loop ensure() calls never allocate.
    T* ensure(std::size_t n) {
        if (n > cap_) {
            release();
            if (guard::inject::should_fail_alloc()) throw std::bad_alloc{};
            std::size_t space = n * sizeof(T) + alignment;
            raw_ = ::operator new(space);
            void* p = raw_;
            p_ = static_cast<T*>(std::align(alignment, n * sizeof(T), p, space));
            cap_ = n;
        }
        return p_;
    }

    [[nodiscard]] T* data() const noexcept { return p_; }

private:
    void release() noexcept {
        ::operator delete(raw_);
        raw_ = nullptr;
        p_ = nullptr;
        cap_ = 0;
    }

    void* raw_ = nullptr;
    T* p_ = nullptr;
    std::size_t cap_ = 0;
};

/// Pack the (mcb x kcb) block of A at (i0, k0) into `buf`, plane-major.
/// On return planes[p] points at packed plane p (row stride kcb). `a` is a
/// planar view or an AoS view of MultiFloat<T, N>.
template <std::floating_point T, int N, typename AView>
void pack_a(const AView& a, std::size_t i0, std::size_t k0, std::size_t mcb,
            std::size_t kcb, AlignedBuffer<T>& buf, const T* (&planes)[N]) {
    T* dst = buf.ensure(static_cast<std::size_t>(N) * mcb * kcb);
    for (int p = 0; p < N; ++p) {
        T* plane = dst + static_cast<std::size_t>(p) * mcb * kcb;
        planes[p] = plane;
        for (std::size_t r = 0; r < mcb; ++r) {
            const auto src = detail::limb_row<T, N>(a, p, i0 + r);
            T* out = plane + r * kcb;
            for (std::size_t kk = 0; kk < kcb; ++kk) out[kk] = src[k0 + kk];
        }
    }
    MF_TELEM_COUNT_N("mf_gemm_pack_bytes_total{panel=\"a\"}",
                     static_cast<std::size_t>(N) * mcb * kcb * sizeof(T));
}

/// Pack the (kcb x ncb) block of B at (k0, j0) into `buf`, plane-major.
/// On return planes[p] points at packed plane p (row stride ncb). `b` is a
/// planar view or an AoS view of MultiFloat<T, N>.
template <std::floating_point T, int N, typename BView>
void pack_b(const BView& b, std::size_t k0, std::size_t j0, std::size_t kcb,
            std::size_t ncb, AlignedBuffer<T>& buf, const T* (&planes)[N]) {
    T* dst = buf.ensure(static_cast<std::size_t>(N) * kcb * ncb);
    for (int p = 0; p < N; ++p) {
        T* plane = dst + static_cast<std::size_t>(p) * kcb * ncb;
        planes[p] = plane;
        for (std::size_t kk = 0; kk < kcb; ++kk) {
            const auto src = detail::limb_row<T, N>(b, p, k0 + kk);
            T* out = plane + kk * ncb;
            for (std::size_t j = 0; j < ncb; ++j) out[j] = src[j0 + j];
        }
    }
    MF_TELEM_COUNT_N("mf_gemm_pack_bytes_total{panel=\"b\"}",
                     static_cast<std::size_t>(N) * kcb * ncb * sizeof(T));
}

}  // namespace mf::blas::engine
